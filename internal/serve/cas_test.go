package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestCASRoundTrip(t *testing.T) {
	cas, err := openCAS(filepath.Join(t.TempDir(), "cas"))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("hello")
	if _, ok := cas.get(key); ok {
		t.Fatal("blob present before put")
	}
	if err := cas.put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	blob, ok := cas.get(key)
	if !ok || !bytes.Equal(blob, []byte("payload")) {
		t.Fatalf("got (%q, %t), want (payload, true)", blob, ok)
	}
	// Fanout layout: <dir>/<first two hex>/<key>.
	if _, err := os.Stat(filepath.Join(cas.dir, key[:2], key)); err != nil {
		t.Fatalf("fanout path missing: %v", err)
	}
}

func TestCASPutIsIdempotent(t *testing.T) {
	cas, err := openCAS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("x")
	if err := cas.put(key, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// Same address means same content by construction; the second write
	// is skipped rather than re-published.
	if err := cas.put(key, []byte("first")); err != nil {
		t.Fatal(err)
	}
	blob, _ := cas.get(key)
	if string(blob) != "first" {
		t.Fatalf("blob = %q", blob)
	}
}

func TestCASRejectsHostileKeys(t *testing.T) {
	cas, err := openCAS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../etc/passwd", "ABCDEF0123456789", "aaaa/bbbb"} {
		if err := cas.put(key, []byte("x")); err == nil {
			t.Errorf("put(%q) accepted", key)
		}
		if _, ok := cas.get(key); ok {
			t.Errorf("get(%q) hit", key)
		}
	}
}

func TestCASConcurrentWritersSameKey(t *testing.T) {
	cas, err := openCAS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("contended")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cas.put(key, []byte("same bytes")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	blob, ok := cas.get(key)
	if !ok || string(blob) != "same bytes" {
		t.Fatalf("got (%q, %t)", blob, ok)
	}
	// No stray temp files survive the race.
	entries, _ := os.ReadDir(filepath.Join(cas.dir, key[:2]))
	for _, e := range entries {
		if e.Name() != key {
			t.Fatalf("stray file %s", e.Name())
		}
	}
}

func TestCASDistinctKeysDoNotCollide(t *testing.T) {
	cas, err := openCAS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := cas.put(testKey(fmt.Sprint(i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		blob, ok := cas.get(testKey(fmt.Sprint(i)))
		if !ok || string(blob) != fmt.Sprint(i) {
			t.Fatalf("key %d: got (%q, %t)", i, blob, ok)
		}
	}
}
