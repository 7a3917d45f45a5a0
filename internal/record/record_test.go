package record

import (
	"bytes"
	"testing"
)

// FuzzRecord holds the codec to three properties on arbitrary input:
// Decode and Coupled never panic; a value they return lies inside the
// bytes they were handed; and Encode then Decode round-trips. data[:cut]
// is handed over with data's spare capacity behind it, so a value sliced
// past the end of src shows here rather than as a panic. A record Decode
// accepts must be what Encode writes for its backward pointer and value:
// zeroed bytes and a buffer shorter than a header (seeds) are rejected.
func FuzzRecord(f *testing.F) {
	rec := make([]byte, Size(20))
	Encode(rec, 7, []byte("twenty bytes of data"))
	f.Add(uint64(42), []byte("the value payload"), rec, uint16(len(rec)))
	f.Add(uint64(0), []byte{}, make([]byte, 32), uint16(32))                  // zeroed bytes
	f.Add(^uint64(0), []byte("x"), []byte{1, 2}, uint16(2))                   // shorter than a header
	f.Add(uint64(8), []byte("twenty bytes of data"), rec, uint16(len(rec)))   // another entry's record
	f.Add(uint64(7), []byte("0123456789abcdef"), rec, uint16(20))             // a length past the bytes read
	f.Add(uint64(7), []byte("twenty bytes of data"), rec, uint16(HeaderSize)) // the header alone

	f.Fuzz(func(t *testing.T, idx uint64, value, data []byte, cut uint16) {
		buf := make([]byte, Size(len(value)))
		if n := Encode(buf, idx, value); n != len(buf) || n%Align != 0 {
			t.Fatalf("Encode of %d bytes returned %d, want %d", len(value), n, len(buf))
		}
		if gi, gv, ok := Decode(buf); !ok || gi != idx || !bytes.Equal(gv, value) {
			t.Fatalf("round trip of (%d, %q) = (%d, %q, %v)", idx, value, gi, gv, ok)
		}
		if gv, err := Coupled(buf, idx, len(value)); err != nil || !bytes.Equal(gv, value) {
			t.Fatalf("Coupled on its own record: %q, %v", gv, err)
		}
		if pad := buf[HeaderSize+len(value):]; !bytes.Equal(pad, make([]byte, len(pad))) {
			t.Fatalf("padding not zeroed: %x", pad)
		}

		src := data[:int(cut)%(len(data)+1)]
		inside := func(v []byte) bool { return HeaderSize+len(v) <= len(src) && cap(v) == len(v) }
		if bp, v, ok := Decode(src); ok {
			if !inside(v) {
				t.Fatalf("Decode returned %d value bytes from %d", len(v), len(src))
			}
			again := make([]byte, Size(len(v)))
			Encode(again, bp, v)
			if n := HeaderSize + len(v); !bytes.Equal(again[:n], src[:n]) {
				t.Fatalf("Decode accepted %x, which Encode writes as %x", src[:n], again[:n])
			}
		}
		bp, n, _ := ParseHeader(src)
		for _, c := range []struct {
			idx uint64
			n   int
		}{{idx, len(value)}, {bp, n}} {
			v, err := Coupled(src, c.idx, c.n)
			if err == nil && (len(v) != c.n || !inside(v)) {
				t.Fatalf("Coupled(%d, %d) returned %d value bytes from %d", c.idx, c.n, len(v), len(src))
			}
			if _, dv, ok := Decode(src); (err == nil) != (ok && bp == c.idx && len(dv) == c.n) {
				t.Fatalf("Coupled(%d, %d) = %v, Decode = %v", c.idx, c.n, err, ok)
			}
		}
	})
}
