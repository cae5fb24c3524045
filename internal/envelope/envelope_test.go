package envelope

import (
	"bytes"
	"errors"
	"testing"
)

var errFuzz = errors.New("envelope: fuzz")

const fuzzMagic = "ENVF"

// sealedSample encodes payload through every field kind.
func sealedSample(t Trailer, version uint16, payload []byte) []byte {
	e := NewEncoder(fuzzMagic, version, 0)
	e.U8(7)
	e.Str(string(payload))
	e.Bytes(payload)
	e.F64(1.5)
	ints := make([]int, len(payload))
	for i, b := range payload {
		ints[i] = int(int8(b))
	}
	e.Ints(ints)
	e.U64s([]uint64{uint64(len(payload)), 1 << 63})
	return e.Seal(t)
}

// FuzzOpen: arbitrary bytes never panic Open or the reads after it under
// either trailer; every read after a successful Open stays inside the
// body; and Seal→Open round-trips every field.
func FuzzOpen(f *testing.F) {
	for _, t := range []Trailer{CRC32, SHA256} {
		for _, p := range [][]byte{nil, []byte("x"), []byte("GDSS GDSP GDSC")} {
			env := sealedSample(t, 3, p)
			f.Add(env)
			f.Add(env[:len(env)-1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte(fuzzMagic))

	f.Fuzz(func(tt *testing.T, data []byte) {
		for _, t := range []Trailer{CRC32, SHA256} {
			d, err := Open(data, fuzzMagic, t, 0, 0xFFFF, errFuzz)
			if err != nil {
				if !errors.Is(err, errFuzz) {
					tt.Fatalf("Open error does not wrap the sentinel: %v", err)
				}
				continue
			}
			body := data[:len(data)-t.Size()]
			if !bytes.Equal(d.buf, body) {
				tt.Fatal("decoder body is not the input minus its trailer")
			}
			// Drive reads from the input itself: each byte picks one.
			for _, op := range data {
				off := d.off
				var got []byte
				switch op % 9 {
				case 0:
					d.U8()
				case 1:
					d.U32()
				case 2:
					d.U64()
				case 3:
					got = []byte(d.Str())
				case 4:
					got = d.Bytes("bytes")
				case 5:
					d.I32s("i32s")
				case 6:
					d.U64s("u64s")
				case 7:
					d.F32s("f32s")
				case 8:
					d.Ints("ints")
				}
				if d.off < off || d.off > len(body) {
					tt.Fatalf("read moved the cursor from %d to %d over a %d-byte body", off, d.off, len(body))
				}
				if got != nil && !bytes.Equal(got, body[d.off-len(got):d.off]) {
					tt.Fatal("a read returned bytes from outside the body")
				}
				if d.Err() != nil {
					break
				}
			}
		}

		if len(data) > 1<<12 {
			data = data[:1<<12] // Str carries at most 0xFFFF bytes
		}
		for _, t := range []Trailer{CRC32, SHA256} {
			env := sealedSample(t, uint16(len(data)), data)
			d, err := Open(env, fuzzMagic, t, 0, 0xFFFF, errFuzz)
			if err != nil {
				tt.Fatalf("sealed envelope fails to open: %v", err)
			}
			if d.Version != uint16(len(data)) || d.U8() != 7 || d.Str() != string(data) ||
				!bytes.Equal(d.Bytes("bytes"), data) || d.F64() != 1.5 {
				tt.Fatal("scalar or block fields did not round-trip")
			}
			ints := d.Ints("ints")
			for i, b := range data {
				if ints[i] != int(int8(b)) {
					tt.Fatal("ints did not round-trip")
				}
			}
			if u := d.U64s("u64s"); len(u) != 2 || u[0] != uint64(len(data)) || u[1] != 1<<63 {
				tt.Fatal("u64s did not round-trip")
			}
			if err := d.Close(); err != nil {
				tt.Fatal(err)
			}
			if _, err := Open(env[:len(env)-1], fuzzMagic, t, 0, 0xFFFF, errFuzz); err == nil {
				tt.Fatal("a truncated envelope opened")
			}
		}
	})
}
