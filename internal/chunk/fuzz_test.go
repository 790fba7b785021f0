package chunk

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"adr/internal/space"
)

// fuzzSeeds returns encodings worth mutating: valid chunks of several
// shapes, their compressed envelopes, and hand-broken frames, so the fuzzer
// starts at the structure boundaries instead of rediscovering the magic.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }
	add(Encode(sampleChunk()))
	add(Encode(compressibleChunk(32)))
	add(Encode(&Chunk{Meta: Meta{Dataset: "empty", MBR: space.R(0, 1, 0, 1)}}))
	hiDim := &Chunk{
		Meta:  Meta{Dataset: "4d", MBR: space.R(0, 1, 0, 1, 0, 1, 0, 1)},
		Items: []Item{{Coord: space.Pt(0.5, 0.5, 0.5, 0.5), Value: []byte{1, 2, 3}}},
	}
	hiDim.Meta.Items = 1
	add(Encode(hiDim))
	for _, codec := range []Codec{CodecFlate, CodecColumnar} {
		if env, used := Compress(Encode(compressibleChunk(32)), codec, 2); used == codec {
			add(env)
		}
	}
	good := Encode(sampleChunk())
	add(good[:len(good)-3])                  // truncated tail
	add(append([]byte{0, 1, 2, 3}, good...)) // bad magic prefix
	corrupt := append([]byte(nil), good...)
	corrupt[14] = 0xff // inflated item count
	add(corrupt)
	return seeds
}

// largerEncoding returns a chunk encoding larger than any seed in every
// respect (more items, more dimensions, a longer dataset name), to pre-fill
// the scratch chunk FuzzDecode decodes into: a DecodeInto that fails to
// overwrite or truncate something shows up as a difference from Decode.
func largerEncoding() []byte {
	items := make([]Item, 64)
	for i := range items {
		items[i] = Item{Coord: space.Pt(1, 2, 3, 4, 5, 6, 7, 8), Value: []byte("stale value")}
	}
	return Encode(&Chunk{
		Meta:  Meta{ID: 99, Dataset: "a-much-longer-dataset-name", MBR: ComputeMBR(items), Disk: 5, Node: 4},
		Items: items,
	})
}

// sameChunk reports whether two decodes are identical: every Meta field and
// every item, down to the coordinates past Dims. Floats compare by bits, so
// a NaN read from the input equals itself.
func sameChunk(a, b *Chunk) bool {
	am, bm := a.Meta, b.Meta
	if am.MBR.Dims != bm.MBR.Dims || !sameBits(am.MBR.Lo, bm.MBR.Lo) || !sameBits(am.MBR.Hi, bm.MBR.Hi) {
		return false
	}
	am.MBR, bm.MBR = space.Rect{}, space.Rect{}
	if !reflect.DeepEqual(am, bm) || len(a.Items) != len(b.Items) {
		return false
	}
	for i, ai := range a.Items {
		bi := b.Items[i]
		if ai.Coord.Dims != bi.Coord.Dims || !sameBits(ai.Coord.Coords, bi.Coord.Coords) ||
			!bytes.Equal(ai.Value, bi.Value) {
			return false
		}
	}
	return true
}

func sameBits(a, b [space.MaxDims]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzDecode hardens the raw-format decoder the codecs sit on: arbitrary
// input must never panic, anything that decodes must re-encode to a payload
// that decodes to the same chunk, and DecodeInto over a scratch chunk left
// by an earlier, larger decode must agree with Decode exactly — same error
// outcome, same Meta, same items.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	prefill := largerEncoding()
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		var scratch Chunk
		if err := DecodeInto(&scratch, prefill); err != nil {
			t.Fatalf("decode prefill: %v", err)
		}
		// Fields no encoding carries must be reset too.
		scratch.Meta.Holders, scratch.Meta.StoredBytes = []int32{1, 2}, 1
		errInto := DecodeInto(&scratch, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("Decode error %v, DecodeInto over a used chunk error %v", err, errInto)
		}
		if err != nil {
			return
		}
		if !sameChunk(c, &scratch) {

			t.Fatalf("DecodeInto over a used chunk differs from Decode:\n%+v\n%+v", scratch.Meta, c.Meta)
		}
		if int(c.Meta.Items) != len(c.Items) {
			t.Fatalf("decoded chunk inconsistent: Meta.Items=%d, len=%d", c.Meta.Items, len(c.Items))
		}
		re := Encode(c)
		c2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoding of a decoded chunk failed to decode: %v", err)
		}
		if len(c2.Items) != len(c.Items) || c2.Meta.ID != c.Meta.ID {
			t.Fatal("decode/encode/decode not idempotent")
		}
	})
}

// FuzzDecompress covers the envelope path end to end: arbitrary input must
// never panic, a successful decompression must be decodable or fail cleanly,
// and raw (non-envelope) input must pass through untouched.
func FuzzDecompress(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, err := Decompress(data)
		if err != nil {
			return
		}
		if !IsCompressed(data) && !bytes.Equal(raw, data) {
			t.Fatal("raw payload mutated by Decompress")
		}
		if IsCompressed(data) && len(raw) != RawLen(data) {
			t.Fatalf("decompressed %d bytes, envelope claimed %d", len(raw), RawLen(data))
		}
		_, _ = Decode(raw) // must not panic
	})
}
