package serve

import (
	"fmt"
	"os"
	"path/filepath"
)

// diskCAS is a filesystem content-addressed blob store: the persistent
// tier under the in-memory result cache. Keys are the cache keys
// (SHA-256 hex) and values are immutable once written.
// Writes land in a temp file first and are published by rename, so
// readers never see a torn blob, and concurrent writers of the same key
// are harmless — the content under one address is by construction
// identical.
//
// Layout fans blobs out by the first two hex characters so a large
// store does not put a million entries in one directory:
//
//	<dir>/ab/ab3f…e1
type diskCAS struct {
	dir string
}

// openCAS opens (creating if needed) a content-addressed store rooted
// at dir.
func openCAS(dir string) (*diskCAS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open cas: %w", err)
	}
	return &diskCAS{dir: dir}, nil
}

// validKey rejects anything that is not a plain lowercase-hex content
// hash, so a corrupted or hostile key can never traverse outside dir.
func validKey(key string) bool {
	if len(key) < 8 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (c *diskCAS) path(key string) string {
	return filepath.Join(c.dir, key[:2], key)
}

// get reads a blob; false means absent (or unreadable, which for a
// cache tier is the same thing).
func (c *diskCAS) get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	blob, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	return blob, true
}

// put publishes a blob under its content address. Idempotent: if the
// key already exists the write is skipped (same address, same bytes).
// The temp-then-rename dance makes publication atomic.
func (c *diskCAS) put(key string, blob []byte) error {
	if !validKey(key) {
		return fmt.Errorf("serve: cas: invalid key %q", key)
	}
	dst := c.path(key)
	if _, err := os.Stat(dst); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("serve: cas: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: cas: %w", err)
	}
	_, werr := tmp.Write(blob)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), dst)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: cas: %w", werr)
	}
	return nil
}
