package chunk

import (
	"encoding/binary"
	"fmt"
	"math"

	"adr/internal/space"
)

// Binary wire/disk format for chunks. The same encoding is used for the
// on-disk chunk store and for interprocessor transfer over the RPC layer, so
// a chunk read from disk can be forwarded to a remote processor without
// re-encoding (the zero-copy behaviour §2.4 motivates: processing operations
// access the buffer holding data arriving from disk).
//
// Layout (little endian):
//
//	magic     uint32  'ADRC'
//	version   uint8   1
//	dims      uint8   attribute space dimensionality
//	id        int32
//	disk      int32
//	node      int32
//	items     int32
//	dsLen     uint16, dataset name bytes
//	mbr       2*dims float64 (lo..., hi...)
//	per item: dims float64 coords, uint32 value length, value bytes
const (
	magic   = 0x41445243 // "ADRC"
	version = 1
)

// ErrCorrupt is wrapped by decode errors caused by malformed input.
var ErrCorrupt = fmt.Errorf("chunk: corrupt encoding")

// EncodedSize returns the exact number of bytes Encode/AppendTo produce for
// c, so callers can obtain a right-sized buffer (e.g. from bufpool) before
// encoding.
func EncodedSize(c *Chunk) int {
	dims := c.Meta.MBR.Dims
	size := 4 + 1 + 1 + 4 + 4 + 4 + 4 + 2 + len(c.Meta.Dataset) + 16*dims
	for _, it := range c.Items {
		size += 8*dims + 4 + len(it.Value)
	}
	return size
}

// Encode serializes the chunk. The returned buffer's length becomes the
// chunk's payload size.
func Encode(c *Chunk) []byte {
	return AppendTo(c, make([]byte, 0, EncodedSize(c)))
}

// AppendTo appends the chunk's encoding to dst and returns the extended
// slice, exactly as Encode but without forcing a fresh allocation — the
// engine's emit and forward paths pass recycled buffers here so encoding
// stops churning the allocator. Appending exactly EncodedSize(c) bytes, it
// never reallocates when dst has that much spare capacity.
func AppendTo(c *Chunk, dst []byte) []byte {
	dims := c.Meta.MBR.Dims
	buf := dst
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = append(buf, version, byte(dims))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Meta.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Meta.Disk))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Meta.Node))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Items)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Meta.Dataset)))
	buf = append(buf, c.Meta.Dataset...)
	for d := 0; d < dims; d++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Meta.MBR.Lo[d]))
	}
	for d := 0; d < dims; d++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Meta.MBR.Hi[d]))
	}
	for _, it := range c.Items {
		for d := 0; d < dims; d++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Coord.Coords[d]))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(it.Value)))
		buf = append(buf, it.Value...)
	}
	return buf
}

// headerSize is the fixed-width prefix of the encoding: magic through dsLen.
const headerSize = 4 + 1 + 1 + 4 + 4 + 4 + 4 + 2

// Decode parses a chunk encoded by Encode into a fresh Chunk. Item values
// alias the input buffer; callers that mutate payloads must copy first.
func Decode(buf []byte) (*Chunk, error) {
	c := new(Chunk)
	if err := DecodeInto(c, buf); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeInto parses a chunk encoded by Encode into c, overwriting its Meta
// and reusing the capacity of c.Items, so a caller that keeps one scratch
// Chunk per worker decodes without allocating. The result is exactly what
// Decode returns. Item values alias buf, as with Decode; a caller recycling
// c must clear(c.Items) once done with them, on success or error, so the
// scratch does not pin buf. On error c's other contents are unspecified.
func DecodeInto(c *Chunk, buf []byte) error {
	le := binary.LittleEndian
	if len(buf) < headerSize {
		return fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(buf), headerSize)
	}
	if m := le.Uint32(buf); m != magic {
		return fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if buf[4] != version {
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, buf[4])
	}
	dims := int(buf[5])
	if dims == 0 || dims > space.MaxDims {
		return fmt.Errorf("%w: dims %d out of range", ErrCorrupt, dims)
	}
	nitems := le.Uint32(buf[18:])
	dsLen := int(le.Uint16(buf[22:]))
	off := headerSize
	if len(buf)-off < dsLen+16*dims {
		return fmt.Errorf("%w: need %d bytes of name and MBR at offset %d, have %d",
			ErrCorrupt, dsLen+16*dims, off, len(buf))
	}
	// Reuse the previous name when it matches: the comparison does not
	// allocate, so a scratch chunk decoding one dataset's chunks never does.
	name := c.Meta.Dataset
	if ds := buf[off : off+dsLen]; name != string(ds) {
		name = string(ds)
	}
	off += dsLen
	c.Meta = Meta{
		ID:      ID(int32(le.Uint32(buf[6:]))),
		Dataset: name,
		Disk:    int32(le.Uint32(buf[10:])),
		Node:    int32(le.Uint32(buf[14:])),
	}
	c.Meta.MBR.Dims = dims
	for d := 0; d < dims; d++ {
		c.Meta.MBR.Lo[d] = math.Float64frombits(le.Uint64(buf[off+8*d:]))
		c.Meta.MBR.Hi[d] = math.Float64frombits(le.Uint64(buf[off+8*(dims+d):]))
	}
	off += 16 * dims

	// Every item takes at least its coordinates and value length, so the
	// remaining bytes bound the count before anything is allocated: a
	// corrupt count cannot make a small frame allocate gigabytes.
	stride := 8*dims + 4
	if uint64(nitems) > uint64((len(buf)-off)/stride) {
		return fmt.Errorf("%w: item count %d exceeds the %d bytes left at offset %d",
			ErrCorrupt, nitems, len(buf)-off, off)
	}
	n := int(nitems)
	if cap(c.Items) < n {
		c.Items = make([]Item, n)
	}
	// Extend c.Items before filling it, so even after an error every item
	// written is within len and a caller's clear(c.Items) reaches it.
	c.Items = c.Items[:n]
	items := c.Items
	for i := range items {
		if len(buf)-off < stride {
			return fmt.Errorf("%w: item %d needs %d bytes at offset %d, have %d",
				ErrCorrupt, i, stride, off, len(buf))
		}
		rec := buf[off : off+stride]
		it := &items[i]
		it.Coord = space.Point{Dims: dims}
		for d := 0; d < dims; d++ {
			it.Coord.Coords[d] = math.Float64frombits(le.Uint64(rec[8*d:]))
		}
		vlen := le.Uint32(rec[8*dims:])
		off += stride
		if uint64(vlen) > uint64(len(buf)-off) {
			return fmt.Errorf("%w: item %d value needs %d bytes at offset %d, have %d",
				ErrCorrupt, i, vlen, off, len(buf))
		}
		end := off + int(vlen)
		it.Value = buf[off:end:end]
		off = end
	}
	c.Meta.Items = int32(nitems)
	c.Meta.Bytes = int64(off)
	return nil
}
