package trace

import (
	"bytes"
	"encoding/binary"
	"math/big"
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

// FuzzMetaValidate feeds arbitrary stream metadata to Meta.Validate,
// the check every ChunkSource's Meta passes before a simulation sizes
// its per-thread state from it, and to NewSliceSource. counts holds the
// per-thread access counts as varints; tids holds one access per byte,
// issued by that thread. Every accepted Meta must have one count per
// thread, summing (in exact arithmetic) to Accesses. A SliceSource is
// built only over accesses whose per-thread counts match the Meta, and
// draining it in chunks of chunk+1 accesses must yield exactly Accesses
// accesses, then stay exhausted. Threads and the access slice are capped
// so no input allocates more than about 1 MiB. The seed corpus under
// testdata/fuzz holds a matching two-thread stream, a count list shorter
// than Threads, a negative count and four counts that wrap an int64 sum
// to zero.
func FuzzMetaValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, threads int, instr uint64, accesses int64, counts, tids []byte, chunk uint8) {
		if threads > 1<<12 || len(tids) > 1<<16 {
			return
		}
		var per []int64
		for len(counts) > 0 && len(per) <= threads {
			v, n := binary.Varint(counts)
			if n <= 0 {
				break
			}
			per = append(per, v)
			counts = counts[n:]
		}
		m := Meta{Name: name, Threads: threads, InstrCount: instr, Accesses: accesses, PerThread: per}
		if err := m.Validate(); err != nil {
			return
		}
		if len(m.PerThread) != m.Threads {
			t.Fatalf("accepted %d per-thread counts for %d threads", len(m.PerThread), m.Threads)
		}
		sum := new(big.Int)
		for _, n := range m.PerThread {
			sum.Add(sum, big.NewInt(n))
		}
		if sum.Cmp(big.NewInt(m.Accesses)) != 0 {
			t.Fatalf("accepted per-thread counts %v summing to %s, not %d", m.PerThread, sum, m.Accesses)
		}

		accs := make([]Access, len(tids))
		got := make([]int64, m.Threads)
		match := int64(len(tids)) == m.Accesses
		for i, tid := range tids {
			accs[i] = Access{Addr: uint64(i) << 6, Tid: tid}
			if int(tid) >= m.Threads {
				match = false
				continue
			}
			got[tid]++
		}
		if !match || !reflect.DeepEqual(got, m.PerThread) {
			if int64(len(accs)) != m.Accesses {
				if _, err := NewSliceSource(m, accs); err == nil {
					t.Fatalf("NewSliceSource accepted %d accesses for a Meta declaring %d", len(accs), m.Accesses)
				}
			}
			return
		}
		src, err := NewSliceSource(m, accs)
		if err != nil {
			t.Fatalf("NewSliceSource rejected matching accesses: %v", err)
		}
		buf := make([]Access, int(chunk)+1)
		var drained int64
		for {
			n, err := src.ReadChunk(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			drained += int64(n)
		}
		if drained != m.Accesses {
			t.Errorf("drained %d accesses, Meta declares %d", drained, m.Accesses)
		}
		if n, err := src.ReadChunk(buf); n != 0 || err != nil {
			t.Errorf("exhausted source returned %d, %v", n, err)
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
