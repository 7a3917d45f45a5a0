// Package record is the one codec of a value record, the unit the
// Persistent Write Buffer (§4.3) appends to NVM and Value Storage (§5.1)
// packs into SSD chunks. Both media share one layout, 16-byte aligned:
//
//	[ backptr:8 ][ len:4 ][ magic:4 ][ value, zero-padded to 16 ]
//
// backptr is the HSIT entry index, the backward pointer of §4.5, and len
// the value's length in bytes. A record is live iff it is well-coupled:
// its HSIT entry's forward pointer names the record, and the record's
// backward pointer and length match that entry and pointer (Coupled).
// Reclamation, GC, recovery and the offline checker all rest on that one
// predicate (§4.3, §4.5, §5.2, §5.5).
//
// The magic tells a value record from a pad, and either from bytes that
// are neither. Only the PWB writes pads: the filler from a ring's last
// record to the ring end, whose len field covers the rest of the pad so
// that a pad's footprint is Size(len) like a record's. Which medium a
// record is on is the forward pointer's media tag, not the magic's.
//
// The package knows bytes only; which device they live on and how they
// are read is the caller's.
package record

import (
	"encoding/binary"
	"errors"
)

const (
	// HeaderSize is the bytes of a record before its value.
	HeaderSize = 16
	// Align is the alignment of every record and every record footprint.
	Align = 16

	valueMagic = 0x56414c31 // "VAL1"
	padMagic   = 0x50414431 // "PAD1"
)

// Size returns the aligned footprint of a record holding valueLen bytes.
func Size(valueLen int) int { return (HeaderSize + valueLen + Align - 1) / Align * Align }

// Kind is what a header says its bytes are.
type Kind uint8

const (
	Invalid Kind = iota // neither a value record nor a pad
	Value
	Pad
)

// PutHeader writes the header of a record of an n-byte value for HSIT
// entry backptr into dst[:HeaderSize]. The value follows it at
// dst[HeaderSize:]; the caller writes it (the PWB stores it straight from
// the caller's slice, with no staging copy).
func PutHeader(dst []byte, backptr uint64, n int) { putHeader(dst, backptr, n, valueMagic) }

// PutPad writes into dst[:HeaderSize] the header of a pad n bytes long,
// header included; n is a multiple of Align.
func PutPad(dst []byte, n int) { putHeader(dst, ^uint64(0), n-HeaderSize, padMagic) }

func putHeader(dst []byte, backptr uint64, n int, magic uint32) {
	binary.LittleEndian.PutUint64(dst[0:], backptr)
	binary.LittleEndian.PutUint32(dst[8:], uint32(n))
	binary.LittleEndian.PutUint32(dst[12:], magic)
}

// ParseHeader parses the header at the start of src: the backward pointer
// and value length of a record, or the length Size counts for a pad. A
// src shorter than a header is Invalid. The length is not bounded: the
// caller checks the footprint against what it read.
func ParseHeader(src []byte) (backptr uint64, valueLen int, k Kind) {
	if len(src) < HeaderSize {
		return 0, 0, Invalid
	}
	switch binary.LittleEndian.Uint32(src[12:]) {
	case valueMagic:
		k = Value
	case padMagic:
		k = Pad
	default:
		return 0, 0, Invalid
	}
	return binary.LittleEndian.Uint64(src[0:]), int(binary.LittleEndian.Uint32(src[8:])), k
}

// Encode writes the whole record for (backptr, value), padding zeroed,
// into dst, which must hold Size(len(value)) bytes, and returns that size.
func Encode(dst []byte, backptr uint64, value []byte) int {
	n := Size(len(value))
	PutHeader(dst, backptr, len(value))
	clear(dst[HeaderSize+copy(dst[HeaderSize:], value) : n])
	return n
}

// Decode parses the value record at the start of src. ok is false unless
// src begins with a value record whose value lies inside src. The value
// is a view of src, capped at its end.
func Decode(src []byte) (backptr uint64, value []byte, ok bool) {
	backptr, n, k := ParseHeader(src)
	if k != Value || n > len(src)-HeaderSize {
		return 0, nil, false
	}
	return backptr, src[HeaderSize : HeaderSize+n : HeaderSize+n], true
}

// The checks Coupled can find failing.
var (
	ErrUnparseable = errors.New("unparseable")     // no value record, or its value runs past the bytes read
	ErrIllCoupled  = errors.New("ill-coupled")     // the backward pointer names another HSIT entry
	ErrLenMismatch = errors.New("length mismatch") // the length is not the forward pointer's
)

// Coupled is the well-coupledness predicate (§4.5, §5.5) for a record read
// through a forward pointer of HSIT entry idx whose length is n: src
// decodes (a value record whose value lies inside src), its backward
// pointer is idx, and its length is n. It returns the value, a view of src
// capped at its end, or the check that failed; it never allocates. Only
// the header is parsed, so a caller may check a record whose value bytes
// it has not read yet, and read them into the view.
func Coupled(src []byte, idx uint64, n int) ([]byte, error) {
	backptr, v, ok := Decode(src)
	switch {
	case !ok:
		return nil, ErrUnparseable
	case backptr != idx:
		return nil, ErrIllCoupled
	case len(v) != n:
		return nil, ErrLenMismatch
	}
	return v, nil
}
