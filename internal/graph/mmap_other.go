//go:build !unix

package graph

import (
	"errors"
	"os"
)

// mmapRegion always fails on platforms without a unix mmap, routing
// per-segment loads to LoadCBIN's heap-read fallback.
func mmapRegion(f *os.File, off int64, length int) (view, region []byte, err error) {
	return nil, nil, errors.New("graph: mmap unsupported on this platform")
}

// munmap releases nothing on this platform: graphs loaded through the read
// fallback are ordinary heap memory, so Close must be a no-op rather than
// report a spurious error.
func munmap(m []byte) error { return nil }
