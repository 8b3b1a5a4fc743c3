//go:build unix

package eval

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps path read-only and returns the mapping plus its unmap
// function. The mapping is page-aligned, so the artifact's 8-aligned words
// section can be aliased as []uint64 directly; pages fault in lazily and
// are shared with every other process mapping the same file.
func mapFile(path string) (data []byte, unmap func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size == 0 {
		// Zero-length mmap is an error on most unixes; an empty file can
		// never hold a header anyway, so hand back an empty buffer and let
		// the decoder reject it as corrupt.
		return []byte{}, func() error { return nil }, nil
	}
	if uint64(size) > uint64(maxInt) {
		return nil, nil, fmt.Errorf("eval: artifact file of %d bytes exceeds address space", size)
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: mmap %s: %w", path, err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
