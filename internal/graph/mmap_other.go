//go:build !unix

package graph

import (
	"errors"
	"os"
)

// mmap always fails on platforms without a unix mmap, routing LoadCBIN to
// its ReadCBIN fallback.
func mmap(f *os.File, length int) ([]byte, error) {
	return nil, errors.New("graph: mmap unsupported on this platform")
}

// munmap releases nothing on this platform: graphs loaded through the read
// fallback are ordinary heap memory, so Close must be a no-op rather than
// report a spurious error.
func munmap(m []byte) error { return nil }
