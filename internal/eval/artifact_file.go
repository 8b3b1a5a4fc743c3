package eval

import (
	"fmt"
	"os"
	"path/filepath"

	"bstc/internal/fault"
)

// File-level artifact IO. Writing goes through a temp file in the target's
// directory plus fsync and an atomic rename, so a crash mid-write — or a
// fault injected at any site below — can never leave a torn artifact at the
// destination: readers see the old complete file or the new complete file,
// nothing in between. Reading is LoadArtifactMapped, the one loader.

// FormatV2 names the flat mappable layout (SaveV2), the one format
// WriteArtifactFile accepts.
const FormatV2 = "v2"

// WriteArtifactFile writes the artifact to path in format v2 atomically: the
// bytes land in an O_EXCL temp file next to path, are fsynced, and only then
// renamed over the destination, followed by a directory sync so the rename
// itself is durable. format must be FormatV2.
func WriteArtifactFile(path string, a *Artifact, format string) (err error) {
	if format != FormatV2 {
		return fmt.Errorf("eval: write artifact: unknown format %q (want %q)", format, FormatV2)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("eval: write artifact: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	// SaveV2 builds the whole image first and hands it over in one write.
	err = a.SaveV2(tmp)
	if err == nil {
		err = fault.Hit("eval.artifact.write.sync")
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		return fmt.Errorf("eval: write artifact: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("eval: write artifact: %w", err)
	}
	if err = fault.Hit("eval.artifact.write.rename"); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("eval: write artifact: %w", err)
	}
	// Durability of the rename itself; best-effort where directories cannot
	// be fsynced.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// MappedArtifact is an artifact served out of a memory-mapped v2 file: the
// metadata lives on the heap, every bitset word stays in the mapping. Close
// unmaps; the artifact (and anything still holding its bitsets) must not be
// used afterwards.
type MappedArtifact struct {
	*Artifact
	data  []byte
	unmap func() error
}

// Bytes returns the file image the artifact was decoded from — the mapping
// itself, not a copy — so a caller can hash exactly the bytes being served.
// It is valid until Close.
func (m *MappedArtifact) Bytes() []byte { return m.data }

// Close releases the mapping.
func (m *MappedArtifact) Close() error {
	if m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap, m.data = nil, nil
	return u()
}

// LoadArtifactMapped opens a v2 artifact file with zero deserialization of
// its bitset payload: the file is mapped read-only, the layout and both
// section checksums are validated, and the classifier's bitsets become
// frozen views aliasing the mapped words. Cold-start cost is parsing the
// small metadata section; the words — the overwhelming bulk of a trained
// artifact — are never copied or even touched until queries fault their
// pages in.
//
// The file must outlive the returned artifact; Close unmaps. Where mmap is
// unavailable the file is read into memory instead, and on hosts where
// aliasing is impossible (big-endian) the words are copied; either way the
// call still succeeds. Files in the retired v1 gob format are rejected with
// ErrCorruptArtifact and a message saying to rewrite them with
// `bstc artifact`.
func LoadArtifactMapped(path string) (*MappedArtifact, error) {
	if err := fault.Hit("eval.artifact.load"); err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	a, err := decodeV2(data)
	if err != nil {
		unmap()
		return nil, err
	}
	return &MappedArtifact{Artifact: a, data: data, unmap: unmap}, nil
}
