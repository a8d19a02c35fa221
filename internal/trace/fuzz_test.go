package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the binary trace decoder, the
// boundary every trace file crosses on load. Decode must never panic,
// and whatever it accepts must be a valid trace that encodes and decodes
// back to itself. The seed corpus under testdata/fuzz holds a valid
// trace, the same trace cut short in its accesses, a header declaring
// 2^32 accesses with none following, and a wrong version byte.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := Decode(bytes.NewReader(raw))
		if err != nil {
			if tr != nil {
				t.Errorf("error %v returned with a trace", err)
			}
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Errorf("round trip changed the trace: %+v -> %+v", tr, again)
		}
	})
}

// FuzzDecodeText feeds arbitrary text to the text trace decoder. It must
// never panic, and whatever it accepts must be a valid trace that the
// text encoder writes and the decoder reads back unchanged. The seed
// corpus holds a hand-written trace with comments and mixed-case kinds,
// a decimal-address trace without a header, a tid beyond the declared
// threads and a malformed line.
func FuzzDecodeText(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := DecodeText(bytes.NewReader(raw))
		if err != nil {
			if tr != nil {
				t.Errorf("error %v returned with a trace", err)
			}
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := EncodeText(&buf, tr); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		again, err := DecodeText(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Errorf("round trip changed the trace: %+v -> %+v", tr, again)
		}
	})
}

// TestDecodeBoundsDeclaredAllocation: a 14-byte header declaring 2^32
// accesses fails on its missing accesses without allocating for them.
func TestDecodeBoundsDeclaredAllocation(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("NVMT\x01\x01x") // magic, version, the name "x"
	var tmp [10]byte
	for _, v := range []uint64{100, 1, 1 << 32} { // instructions, threads, accesses
		buf.Write(tmp[:putUvarintHelper(tmp[:], v)])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Decode(&buf); err == nil {
		t.Fatal("a header with no accesses decoded")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("decoding a short input allocated %d bytes", grew)
	}
}
