package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// fuzzKey is the file key every FuzzDecodeRawEntry input is decoded
// against; the seed corpus's entries carry it in their headers.
const fuzzKey = "4c8a1e6f0b2d3c5e7f9a1b2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60"

// FuzzDecodeRawEntry feeds arbitrary bytes to the persistent store's
// entry verifier, the boundary every cache file crosses on load. The
// decoder must never panic, and whenever it hands back a payload the
// header must name this format, version and key and the payload must
// match the header's length and SHA-256. The seed corpus under
// testdata/fuzz holds a valid entry, the same entry marked version 1, a
// truncated header and a payload with one byte flipped.
func FuzzDecodeRawEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := decodeRawEntry(storeFormatName, fuzzKey, raw)
		if err != nil {
			if payload != nil {
				t.Errorf("error %v returned with a payload", err)
			}
			return
		}
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 || !bytes.Equal(payload, raw[nl+1:]) {
			t.Fatal("payload is not the bytes after the header line")
		}
		var h storeHeader
		if err := json.Unmarshal(raw[:nl], &h); err != nil {
			t.Fatalf("accepted an undecodable header: %v", err)
		}
		if h.Format != storeFormatName || h.Version != StoreFormatVersion || h.Key != fuzzKey {
			t.Errorf("accepted header %+v for format %q, version %d, key %q", h, storeFormatName, StoreFormatVersion, fuzzKey)
		}
		sum := sha256.Sum256(payload)
		if hex.EncodeToString(sum[:]) != h.SHA256 || int64(len(payload)) != h.Bytes {
			t.Errorf("accepted a payload whose checksum or length disagrees with header %+v", h)
		}
	})
}
