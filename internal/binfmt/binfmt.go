// Package binfmt holds the binary encoding primitives shared by every
// binary format in the repository: the wire payloads (internal/wire), the
// on-disk checkpoint and write-ahead log (internal/most) and the server's
// receipts (internal/server).  Each format defines its own grammar on top
// of the same building blocks:
//
//	u8/u32/u64  fixed-width little-endian unsigned integers
//	i64         fixed-width little-endian two's complement
//	f64         IEEE-754 binary64 bits, little-endian: values round-trip
//	            exactly, bit for bit (-0, ±Inf and NaN payloads included)
//	uvarint     unsigned LEB128 (encoding/binary's Uvarint)
//	varint      zigzag LEB128 (encoding/binary's Varint)
//	str/bytes   uvarint byte length followed by the raw bytes
//
// A sealed file is a magic (identifying bytes plus a version byte), a
// body, and a u32 IEEE CRC-32 of the magic and body (Seal, Unseal).
//
// Encoders are append-style ([]byte in, []byte out) so callers own buffer
// reuse.  Reader decodes with a sticky error and bounds every length and
// element count by the bytes remaining, so hostile input can neither panic
// a decoder nor make it allocate more than the input could describe.
package binfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendI64 appends a little-endian two's-complement int64.
func AppendI64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

// AppendF64 appends a float64's IEEE-754 bits.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendUvarint appends an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends a zigzag signed varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendStr appends a uvarint-length-prefixed string.
func AppendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a uvarint-length-prefixed byte string.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends a bool as one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Seal appends the CRC that closes a sealed file whose image, magic
// first, starts at b[start].
func Seal(b []byte, start int) []byte {
	return AppendU32(b, crc32.ChecksumIEEE(b[start:]))
}

// Unseal checks a sealed file's magic and CRC and returns a Reader over
// its body.
func Unseal(data, magic []byte) (*Reader, error) {
	switch {
	case !bytes.HasPrefix(data, magic):
		return nil, errors.New("bad header")
	case len(data) < len(magic)+4:
		return nil, errors.New("truncated")
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, errors.New("checksum mismatch")
	}
	return &Reader{Data: body, Off: len(magic)}, nil
}

// Reader decodes the primitives with a sticky error: after the first
// violation every subsequent read returns zero values and Err keeps the
// first failure.  All bounds are checked against the remaining input
// before any slice or string is materialized.  The zero Reader over Data
// is ready to use.
type Reader struct {
	Data []byte
	Off  int
	Err  error
}

// Fail records a decode error (the first one wins).
func (r *Reader) Fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf(format, args...)
	}
}

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.Data) - r.Off }

// End closes a decode that must consume all of Data: it fails the reader
// if bytes remain and returns the reader's error.
func (r *Reader) End() error {
	if r.Err == nil && r.Remaining() != 0 {
		r.Fail("%d trailing bytes", r.Remaining())
	}
	return r.Err
}

// Take returns the next n bytes (aliasing Data), or nil on error.
func (r *Reader) Take(n int) []byte {
	if r.Err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Fail("truncated: need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	b := r.Data[r.Off : r.Off+n]
	r.Off += n
	return b
}

// U8 decodes one byte.
func (r *Reader) U8() uint8 {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 decodes a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 decodes a little-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 decodes a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool decodes a one-byte bool (any nonzero byte is true).
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.Data[r.Off:])
	if w <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.Off += w
	return v
}

// Varint decodes a zigzag signed varint.
func (r *Reader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, w := binary.Varint(r.Data[r.Off:])
	if w <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.Off += w
	return v
}

// StrBytes decodes a uvarint-length-prefixed byte string, aliasing Data.
func (r *Reader) StrBytes() []byte {
	if r.Err != nil {
		return nil
	}
	n, w := binary.Uvarint(r.Data[r.Off:])
	if w <= 0 {
		r.Fail("bad varint length")
		return nil
	}
	r.Off += w
	if n > uint64(r.Remaining()) {
		r.Fail("truncated string: declared %d bytes, have %d", n, r.Remaining())
		return nil
	}
	return r.Take(int(n))
}

// Str decodes a uvarint-length-prefixed string, allocating.
func (r *Reader) Str() string { return string(r.StrBytes()) }

// Count reads a u32 element count and checks it against the bytes
// remaining (each element needs at least minElem ≥ 1 bytes), so a hostile
// count cannot force a huge allocation from a short input.
func (r *Reader) Count(minElem int) int { return r.bound(uint64(r.U32()), minElem) }

// VarCount is Count for a uvarint element count.
func (r *Reader) VarCount(minElem int) int { return r.bound(r.Uvarint(), minElem) }

func (r *Reader) bound(n uint64, minElem int) int {
	if r.Err != nil {
		return 0
	}
	rem := uint64(r.Remaining())
	if n > rem || n*uint64(max(minElem, 1)) > rem {
		r.Fail("count %d exceeds remaining payload (%d bytes)", n, r.Remaining())
		return 0
	}
	return int(n)
}
