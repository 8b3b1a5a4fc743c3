//go:build !unix

package eval

import "os"

// mapFile on platforms without a wired-up mmap falls back to reading the
// file into memory. LoadArtifactMapped still works — same format, same
// validation, same read-only views — it just pays one copy instead of
// sharing the page cache.
func mapFile(path string) (data []byte, unmap func() error, err error) {
	data, err = os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
