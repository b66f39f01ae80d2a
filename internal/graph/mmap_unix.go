//go:build unix

package graph

import (
	"os"
	"syscall"
)

// mmap maps the first length bytes of f read-only. The mapping starts at
// file offset 0, so it is page-aligned.
func mmap(f *os.File, length int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, length, syscall.PROT_READ, syscall.MAP_PRIVATE)
}

func munmap(m []byte) error { return syscall.Munmap(m) }
