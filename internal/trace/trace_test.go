package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	return &Trace{
		Name: "sample",
		Accesses: []Access{
			{Addr: 0x1000, Kind: Read, Tid: 0},
			{Addr: 0x1040, Kind: Write, Tid: 1},
			{Addr: 0x0fff, Kind: Ifetch, Tid: 0},
			{Addr: 0xdeadbeef, Kind: Read, Tid: 1},
		},
		InstrCount: 16,
		Threads:    2,
	}
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := []struct {
		mutate func(*Trace)
		want   string
	}{
		{func(tr *Trace) { tr.Name = "" }, "unnamed"},
		{func(tr *Trace) { tr.Threads = 0 }, "threads"},
		{func(tr *Trace) { tr.InstrCount = 1 }, "instruction count"},
		{func(tr *Trace) { tr.Accesses[1].Tid = 9 }, "tid"},
		{func(tr *Trace) { tr.Accesses[0].Kind = Kind(5) }, "kind"},
	}
	for i, tc := range cases {
		tr := sampleTrace()
		tc.mutate(tr)
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: Validate = %v, want error containing %q", i, err, tc.want)
		}
	}
}

func TestCounts(t *testing.T) {
	r, w, f := sampleTrace().Counts()
	if r != 2 || w != 1 || f != 1 {
		t.Errorf("Counts = %d,%d,%d; want 2,1,1", r, w, f)
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Ifetch.String() != "ifetch" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestCodecRoundTripSample(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Name != tr.Name || got.InstrCount != tr.InstrCount || got.Threads != tr.Threads {
		t.Errorf("metadata mismatch: %+v vs %+v", got, tr)
	}
	if len(got.Accesses) != len(tr.Accesses) {
		t.Fatalf("access count %d, want %d", len(got.Accesses), len(tr.Accesses))
	}
	for i := range got.Accesses {
		if got.Accesses[i] != tr.Accesses[i] {
			t.Errorf("access %d: %+v, want %+v", i, got.Accesses[i], tr.Accesses[i])
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%500) + 1
		tr := &Trace{Name: "prop", Threads: 4, InstrCount: uint64(count) * 3}
		for i := 0; i < count; i++ {
			tr.Accesses = append(tr.Accesses, Access{
				Addr: rng.Uint64(),
				Kind: Kind(rng.Intn(3)),
				Tid:  uint8(rng.Intn(4)),
			})
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(got.Accesses) != len(tr.Accesses) {
			return false
		}
		for i := range got.Accesses {
			if got.Accesses[i] != tr.Accesses[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCodecCompression(t *testing.T) {
	// Sequential streaming accesses should encode far below 10 bytes each.
	tr := &Trace{Name: "stream", Threads: 1, InstrCount: 10000}
	for i := 0; i < 10000; i++ {
		tr.Accesses = append(tr.Accesses, Access{Addr: uint64(0x10000 + 64*i), Kind: Read})
	}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	perAccess := float64(buf.Len()) / float64(len(tr.Accesses))
	if perAccess > 4 {
		t.Errorf("sequential encoding uses %.1f bytes/access, want ≤ 4", perAccess)
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("XXXX\x01"),
		"bad version": []byte("NVMT\x09"),
		"truncated":   []byte("NVMT\x01\x05samp"),
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Decode succeeded on corrupt input", name)
		}
	}
}

func TestDecodeRejectsTruncatedAccessStream(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Decode(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Error("Decode succeeded on truncated access stream")
	}
}

func TestEncodeRejectsInvalidTrace(t *testing.T) {
	tr := sampleTrace()
	tr.Threads = 0
	if err := Encode(&bytes.Buffer{}, tr); err == nil {
		t.Error("Encode accepted invalid trace")
	}
}

// failingWriter errors after n bytes, to exercise Encode error paths.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errFail
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errFail
	}
	w.n -= len(p)
	return len(p), nil
}

var errFail = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestEncodeWriteFailures(t *testing.T) {
	tr := sampleTrace()
	// The sample trace encodes to ~30 bytes; sweep failure points strictly
	// inside it so every write site is exercised.
	var full bytes.Buffer
	if err := Encode(&full, tr); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < full.Len(); n += 3 {
		if err := Encode(&failingWriter{n: n}, tr); err == nil {
			t.Errorf("Encode succeeded with writer failing after %d bytes", n)
		}
	}
}

func TestDecodeRejectsOversizedDeclarations(t *testing.T) {
	// Hand-craft headers declaring absurd sizes.
	mk := func(nameLen, threads uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString("NVMT\x01")
		var tmp [10]byte
		n := putUvarintHelper(tmp[:], nameLen)
		buf.Write(tmp[:n])
		for i := uint64(0); i < nameLen && i < 10; i++ {
			buf.WriteByte('a')
		}
		n = putUvarintHelper(tmp[:], 100) // instr
		buf.Write(tmp[:n])
		n = putUvarintHelper(tmp[:], threads)
		buf.Write(tmp[:n])
		return buf.Bytes()
	}
	if _, err := Decode(bytes.NewReader(mk(1<<20, 1))); err == nil {
		t.Error("huge name length accepted")
	}
	if _, err := Decode(bytes.NewReader(mk(4, 9999))); err == nil {
		t.Error("huge thread count accepted")
	}
}

func putUvarintHelper(buf []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		buf[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	buf[i] = byte(v)
	return i + 1
}
