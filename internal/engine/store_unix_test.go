//go:build unix

package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestOpenDiskCacheOpensNoEntry: every entry is a named pipe, and
// opening a pipe for reading blocks until a writer appears, so a boot
// that opened any entry file would hang. The boot must return promptly
// with every entry indexed and none counted corrupt.
func TestOpenDiskCacheOpensNoEntry(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte{byte(i)})
		if err := syscall.Mkfifo(filepath.Join(dir, hex.EncodeToString(sum[:])+entrySuffix), 0o644); err != nil {
			t.Skipf("cannot make a named pipe: %v", err)
		}
	}
	type booted struct {
		c   *DiskCache
		err error
	}
	// Buffered: a boot stuck in an open must not also block on the send.
	done := make(chan booted, 1)
	go func() {
		c, err := OpenDiskCache(dir)
		done <- booted{c, err}
	}()
	select {
	case b := <-done:
		if b.err != nil {
			t.Fatal(b.err)
		}
		if s := b.c.Stats(); b.c.Len() != n || s.Corrupt != 0 {
			t.Errorf("boot indexed %d and counted %d corrupt, want %d and 0", b.c.Len(), s.Corrupt, n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OpenDiskCache did not return: it opened an entry file")
	}
}
