// Package envelope is the binary codec shared by the repo's three sealed
// formats: GDSS session snapshots, GDSP compiled problems and GDSC resume
// checkpoints. An envelope is
//
//	magic | u16 version | fields... | trailer
//
// with every field little-endian. An Encoder appends fields and Seal adds
// the trailer; Open checks the length, the trailer, the magic and the
// version before any field is read, and hands back a Decoder whose reads
// are bounds-checked against the body and sticky on the first failure —
// a torn or forged envelope is a clean error wrapping the format's
// sentinel, never a panic and never an allocation sized by a forged
// length field.
package envelope

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Trailer is the integrity check that seals an envelope. Each format has
// exactly one, fixed by its wire layout.
type Trailer uint8

const (
	// CRC32 is a 4-byte little-endian IEEE CRC-32 (GDSS: every GDSC
	// envelope embeds one, so it stays as written).
	CRC32 Trailer = iota + 1
	// SHA256 is a 32-byte SHA-256 digest (GDSP, GDSC and store entries).
	SHA256
)

// Size returns the trailer's length in bytes.
func (t Trailer) Size() int {
	if t == CRC32 {
		return 4
	}
	return sha256.Size
}

// appendSum appends the trailer over body to dst.
func (t Trailer) appendSum(dst, body []byte) []byte {
	if t == CRC32 {
		return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	}
	sum := sha256.Sum256(body)
	return append(dst, sum[:]...)
}

// Verify reports whether data is at least one byte followed by a valid
// trailer over those bytes.
func (t Trailer) Verify(data []byte) bool {
	n := len(data) - t.Size()
	if n <= 0 {
		return false
	}
	return subtle.ConstantTimeCompare(t.appendSum(nil, data[:n]), data[n:]) == 1
}

// Encoder appends one envelope's fields. Bulk arrays reserve their bytes
// in one Grow and fill in place, so encoding runs at memory bandwidth.
type Encoder struct{ buf []byte }

// NewEncoder starts an envelope with its magic and version; size is a
// capacity hint for the sealed result.
func NewEncoder(magic string, version uint16, size int) *Encoder {
	e := &Encoder{buf: make([]byte, 0, size)}
	e.buf = append(e.buf, magic...)
	e.U16(version)
	return e
}

func (e *Encoder) U8(v uint8)    { e.buf = append(e.buf, v) }
func (e *Encoder) U16(v uint16)  { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *Encoder) U32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) U64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) F32(v float32) { e.U32(math.Float32bits(v)) }
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str writes a u16 length and the string's bytes (the caller bounds the
// length).
func (e *Encoder) Str(s string) {
	e.U16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes writes a u32 length and the payload.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Grow reserves n bytes at the end of the envelope and returns them; the
// caller must overwrite all of them.
func (e *Encoder) Grow(n int) []byte {
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:off+n]
	return e.buf[off:]
}

// I32s writes a u32 count and the values.
func (e *Encoder) I32s(vs []int32) {
	e.U32(uint32(len(vs)))
	raw := e.Grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(v))
	}
}

// U32s writes a u32 count and the values.
func (e *Encoder) U32s(vs []uint32) {
	e.U32(uint32(len(vs)))
	raw := e.Grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(raw[4*i:], v)
	}
}

// F32s writes a u32 count and the values.
func (e *Encoder) F32s(vs []float32) {
	e.U32(uint32(len(vs)))
	raw := e.Grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
}

// Ints writes a u32 count and the values as i32.
func (e *Encoder) Ints(vs []int) {
	e.U32(uint32(len(vs)))
	raw := e.Grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(int32(v)))
	}
}

// Seal appends the trailer over everything written and returns the
// envelope.
func (e *Encoder) Seal(t Trailer) []byte { return t.appendSum(e.buf, e.buf) }

// Decoder reads one opened envelope's body. After any failed read every
// later read returns zero values and Err reports the first failure, so a
// decode path needs one error check at each natural boundary.
type Decoder struct {
	// Version is the envelope's version, checked by Open.
	Version uint16

	buf  []byte // the body: magic through the last field
	off  int
	err  error
	base error // the sentinel every failure wraps
}

// Open checks a sealed envelope — long enough to hold magic, version and
// trailer; trailer intact; magic as given; version in [minVer, maxVer] —
// and returns a Decoder positioned after the version. Every failure, here
// and in later reads, wraps sentinel.
func Open(data []byte, magic string, t Trailer, minVer, maxVer uint16, sentinel error) (*Decoder, error) {
	if len(data) < len(magic)+2+t.Size() {
		return nil, fmt.Errorf("%w: %d bytes is too short", sentinel, len(data))
	}
	if !t.Verify(data) {
		return nil, fmt.Errorf("%w: integrity trailer mismatch (corrupted or truncated)", sentinel)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", sentinel)
	}
	d := &Decoder{buf: data[:len(data)-t.Size()], off: len(magic), base: sentinel}
	if d.Version = d.U16(); d.Version < minVer || d.Version > maxVer {
		return nil, fmt.Errorf("%w: version %d (this build reads versions %d-%d)", sentinel, d.Version, minVer, maxVer)
	}
	return d, nil
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records a failure (wrapping the sentinel) unless one is recorded.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{d.base}, args...)...)
	}
}

// Close returns the first failure, or an error if body bytes remain
// unread.
func (d *Decoder) Close() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Fail("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

// Take returns the next n body bytes, aliasing the input.
func (d *Decoder) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.Fail("truncated at offset %d (want %d more bytes)", d.off, n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) U8() uint8 {
	if b := d.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) U16() uint16 {
	if b := d.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if b := d.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if b := d.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Decoder) F32() float32 { return math.Float32frombits(d.U32()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a u16-length string.
func (d *Decoder) Str() string { return string(d.Take(int(d.U16()))) }

// Bytes reads a u32-length payload, aliasing the input.
func (d *Decoder) Bytes(what string) []byte { return d.Take(d.Count(1, what)) }

// Count reads a u32 element count and checks that count × elemBytes more
// body bytes exist before the caller allocates for them.
func (d *Decoder) Count(elemBytes int, what string) int {
	n := int(d.U32())
	if d.err == nil && n > (len(d.buf)-d.off)/elemBytes {
		d.Fail("%s count %d exceeds remaining input", what, n)
	}
	if d.err != nil {
		return 0
	}
	return n
}

// array reads a u32 count and that many size-byte elements, or nil.
func (d *Decoder) array(size int, what string) []byte {
	return d.Take(size * d.Count(size, what))
}

// I32s reads a u32 count and that many i32 values.
func (d *Decoder) I32s(what string) []int32 {
	raw := d.array(4, what)
	if d.err != nil {
		return nil
	}
	out := make([]int32, len(raw)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// U32s reads a u32 count and that many u32 values.
func (d *Decoder) U32s(what string) []uint32 {
	raw := d.array(4, what)
	if d.err != nil {
		return nil
	}
	out := make([]uint32, len(raw)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return out
}

// F32s reads a u32 count and that many f32 values.
func (d *Decoder) F32s(what string) []float32 {
	raw := d.array(4, what)
	if d.err != nil {
		return nil
	}
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// Ints reads a u32 count and that many i32 values as ints.
func (d *Decoder) Ints(what string) []int {
	raw := d.array(4, what)
	if d.err != nil {
		return nil
	}
	out := make([]int, len(raw)/4)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return out
}
