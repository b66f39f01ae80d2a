//go:build unix

package graph

import (
	"fmt"
	"os"
	"syscall"
)

// mmapRegion maps length bytes of f starting at byte offset off, read-only.
// mmap offsets must be page-aligned, so the actual mapping begins at the
// containing page: region is the full mapping (what munmap takes) and view
// is the requested [off, off+length) window into it. The .cbin layout
// keeps off 8-aligned and pages are too, so view stays 8-aligned for the
// uint32 casts.
func mmapRegion(f *os.File, off int64, length int) (view, region []byte, err error) {
	if off < 0 || length <= 0 {
		return nil, nil, fmt.Errorf("graph: cannot mmap %d bytes at offset %d", length, off)
	}
	pg := int64(os.Getpagesize())
	aligned := off - off%pg
	delta := int(off - aligned)
	region, err = syscall.Mmap(int(f.Fd()), aligned, delta+length, syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	return region[delta : delta+length : delta+length], region, nil
}

func munmap(m []byte) error { return syscall.Munmap(m) }
