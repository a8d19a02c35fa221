package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format:
//
//	magic "NVMT" | version u8 | name len uvarint | name bytes |
//	instrCount uvarint | threads uvarint | accessCount uvarint |
//	per access: header u8 (kind in bits 0-1, tid in bits 2-7) |
//	            addr zigzag-varint delta from previous address
//
// Address deltas are small for the streaming-heavy workloads this project
// generates, so the encoding is typically 2-4 bytes per access instead
// of 10.

const (
	magic   = "NVMT"
	version = 1
)

var (
	// ErrBadMagic is returned when the input does not start with the trace
	// magic bytes.
	ErrBadMagic = errors.New("trace: bad magic (not a trace file)")
	// ErrBadVersion is returned for an unsupported format version.
	ErrBadVersion = errors.New("trace: unsupported format version")
)

// Encode writes the trace to w in the binary trace format.
func Encode(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := putUvarint(t.InstrCount); err != nil {
		return err
	}
	if err := putUvarint(uint64(t.Threads)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Accesses))); err != nil {
		return err
	}
	var prev uint64
	for _, a := range t.Accesses {
		hdr := byte(a.Kind) | a.Tid<<2
		if err := bw.WriteByte(hdr); err != nil {
			return err
		}
		delta := int64(a.Addr - prev) // wrapping subtraction; zigzag below
		n := binary.PutVarint(buf[:], delta)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prev = a.Addr
	}
	return bw.Flush()
}

// Decode reads a trace previously written by Encode.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, head[len(magic)])
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	const maxName = 4096
	if nameLen > maxName {
		return nil, fmt.Errorf("trace: name length %d exceeds limit %d", nameLen, maxName)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	instr, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading instruction count: %w", err)
	}
	threads, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading thread count: %w", err)
	}
	if threads == 0 || threads > 64 {
		return nil, fmt.Errorf("trace: thread count %d out of range [1,64]", threads)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading access count: %w", err)
	}
	const maxAccesses = 1 << 32
	if count > maxAccesses {
		return nil, fmt.Errorf("trace: access count %d exceeds limit", count)
	}
	// The declared count sizes the first allocation only up to a bound:
	// a short input declaring 2^32 accesses must fail on its missing
	// accesses, not on a 64 GiB allocation.
	const maxPrealloc = 1 << 16
	t := &Trace{
		Name:       string(name),
		InstrCount: instr,
		Threads:    int(threads),
		Accesses:   make([]Access, 0, min(count, maxPrealloc)),
	}
	var prev uint64
	for i := uint64(0); i < count; i++ {
		hdr, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: access %d header: %w", i, err)
		}
		kind := Kind(hdr & 3)
		if kind > Ifetch {
			return nil, fmt.Errorf("trace: access %d has invalid kind %d", i, kind)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: access %d address: %w", i, err)
		}
		prev += uint64(delta)
		t.Accesses = append(t.Accesses, Access{Addr: prev, Kind: kind, Tid: hdr >> 2})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
