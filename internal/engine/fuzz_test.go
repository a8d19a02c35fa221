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

// FuzzDecodeProfileEntry feeds arbitrary payloads to the profile tier's
// decoder. The harness frames each payload with encodeEntry, so every
// input passes the header and checksum checks and reaches json.Unmarshal
// and Profile.Validate. Every accepted profile must profile each set
// count once and answer HitsFor, at each profiled set count and every
// associativity, with hits that never decrease as ways grow and never
// exceed Demand. The seed corpus under testdata/fuzz holds a valid
// entry, a histogram whose buckets wrap a uint64 sum back onto Demand and
// two levels with one set count.
func FuzzDecodeProfileEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		raw, err := encodeEntry(profileFormatName, fuzzKey, payload)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := decodeProfileEntry(fuzzKey, raw)
		if err != nil {
			return
		}
		seen := make(map[int]bool, len(prof.Levels))
		for _, lv := range prof.Levels {
			if seen[lv.Sets] {
				t.Fatalf("accepted profile repeats set count %d", lv.Sets)
			}
			seen[lv.Sets] = true
			var prev uint64
			for w := 1; w <= prof.MaxWays; w++ {
				hits, ok := prof.HitsFor(lv.Sets, w)
				if !ok {
					t.Fatalf("accepted profile cannot answer HitsFor(%d, %d)", lv.Sets, w)
				}
				if hits < prev || hits > prof.Demand {
					t.Fatalf("HitsFor(%d, %d) = %d after %d at %d ways, demand %d", lv.Sets, w, hits, prev, w-1, prof.Demand)
				}
				prev = hits
			}
		}
	})
}
