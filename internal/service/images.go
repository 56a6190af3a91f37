package service

import (
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"unsafe"

	"sdt/internal/isa"
	"sdt/internal/program"
	"sdt/internal/store"
)

// The compiled-image memo's bounds. A few-byte source can assemble to a
// 64 MiB data section (.space), so an entry count alone could pin
// gigabytes; the byte bound caps the memo's resident images at 4 MiB of
// weight (see compiledImage.size), and an image heavier than that on its
// own is compiled per request and never kept. Every built-in workload
// weighs under 70 KiB (mcf's 64 KiB of data); the perfbench fleet matrix
// needs 12 entries and the serve mix 13.
const (
	imageMemoEntries = 64
	imageMemoBytes   = 4 << 20
)

// symbolBytes is what a symbol costs in memory beyond its encoded name
// and address: its map slot and the rounding of the name's allocation.
const symbolBytes = 48

func newImageMemo() *store.Group[*compiledImage] {
	return store.NewGroup[*compiledImage](store.NewWeightedLRU(imageMemoEntries, imageMemoBytes,
		func(ci *compiledImage) int64 { return ci.size }))
}

// runImageKey is a /v1/run program's memo key: a digest of its
// length-prefixed language, name and source. The name is part of it
// because the image bytes, and so the store key, include the name.
func runImageKey(req *RunRequest) string {
	h := sha256.New()
	var n [8]byte
	for _, s := range []string{req.Lang, req.Name, req.Source} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		// The digest has no WriteString, so io.WriteString would copy
		// the whole source first; Write only reads its argument.
		h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
	}
	return "run|" + hex.EncodeToString(h.Sum(nil))
}

// cellImageKey is a sweep cell's memo key: its generated workload is a
// function of the workload name and scale alone.
func cellImageKey(workload string, scale int) string {
	return fmt.Sprintf("cell|%s|%d", workload, scale)
}

// compiledImage is a memoized program image with the sha256 state after
// hashing its bytes. Every store key starts with those bytes, so resuming
// the state gives the key RunRequest.key would without serializing and
// hashing the image again.
type compiledImage struct {
	img   *program.Image
	state []byte // sha256 MarshalBinary state after the image bytes
	size  int64  // resident weight: encoded bytes, spare data capacity, predecoded code, symbol overhead
}

// compiled returns req's image and store key. The image comes from the
// memo under memoKey, or from build on a miss; concurrent misses on one
// key build once, and a failed build is not kept, so the next lookup
// builds again. A caller whose ctx ends while another builds gets ctx's
// cause. The key is byte-identical to req.key(img).
func (s *Server) compiled(ctx context.Context, memoKey string, req *RunRequest, build func() (*program.Image, error)) (string, *program.Image, error) {
	ci, _, err := s.images.Do(ctx, memoKey, func() (*compiledImage, error) {
		img, err := build()
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		n, _ := img.WriteTo(h) // a hash never fails a write
		state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			return nil, err
		}
		size := n + int64(cap(img.Data)-len(img.Data)) + // the data section's spare capacity
			int64(len(img.Code))*int64(unsafe.Sizeof(isa.Inst{})) + int64(len(img.Symbols))*symbolBytes
		return &compiledImage{img: img, state: state, size: size}, nil
	})
	if err != nil {
		return "", nil, err
	}
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(ci.state); err != nil {
		return "", nil, err
	}
	return req.keyAfter(h), ci.img, nil
}

// imageMemoStats reports the memo's cumulative hits and misses (builds
// started) and its live entries and their total weight.
func (s *Server) imageMemoStats() (hits, misses uint64, entries int, bytes int64) {
	hits, misses = s.images.Stats()
	s.images.Range(func(_ string, ci *compiledImage) bool {
		entries++
		bytes += ci.size
		return true
	})
	return hits, misses, entries, bytes
}
