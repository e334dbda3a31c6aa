"""Virtual memory: page tables, VMAs, address spaces and pagemap.

Implements the virtual-memory side of the paper's Section II: fixed-size
pages mapped to physical frames through x86-64 page tables (48-bit
canonical addresses; the leaves are stored flat, one packed int per page,
see :mod:`repro.vm.pagetable`), plus the
``/proc/<pid>/pagemap`` interface whose privilege gating (PFNs hidden from
non-CAP_SYS_ADMIN readers since Linux 4.0) motivates the whole attack.
"""

from repro.vm.address_space import AddressSpace
from repro.vm.pagemap import Pagemap, PagemapEntry
from repro.vm.pagetable import PageTable
from repro.vm.vma import Protection, VMA, VmaFlags

__all__ = [
    "AddressSpace",
    "PageTable",
    "Pagemap",
    "PagemapEntry",
    "Protection",
    "VMA",
    "VmaFlags",
]
