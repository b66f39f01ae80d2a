package graph

import (
	"encoding/binary"
	"fmt"

	"connectit/internal/parallel"
	"connectit/internal/varint"
)

// CompressedGraph is a byte-compressed CSR graph in the block-coded layout
// of Ligra+'s parallel byte codes, the compression the paper runs on (§3.6):
// each vertex's sorted neighbor list is cut into blocks of blockSize
// neighbors, and each block stores its first neighbor zig-zag coded against
// the source vertex (it can be negative) and the rest as variable-length
// ascending differences. A list longer than one block starts with a
// little-endian uint32 offset, relative to the list's start, for every block
// after the first, so the neighbor at any position decodes from its own
// block (NeighborAt) instead of from the list's start. A list of at most
// blockSize neighbors is a single block with no header.
//
// CompressedGraph is a first-class backend of the representation layer
// (Rep): every finish algorithm and sampling scheme runs directly on the
// encoded form via NeighborsInto's decode-into-scratch path, the same
// design that lets the paper process 200B+-edge graphs without
// re-materializing a flat CSR. k-out sampling, which reads a few positions
// per list, takes the concrete type and calls NeighborAt directly, as it
// reads CSR's arrays directly. The per-vertex uint64 byte-offset index
// makes decoding random-access and puts no bound on the total encoding;
// only a single list is capped, at 4 GiB, by its uint32 block offsets.
type CompressedGraph struct {
	Offsets []uint64 // byte offset of each vertex's encoded list; len n+1
	Degrees []uint32 // degree of each vertex; len n
	Data    []byte   // block-coded neighbor lists

	m      uint64 // directed edge count (sum of Degrees)
	mapped []byte // whole mmap'd file when loaded via LoadCBIN; nil otherwise
}

// maxListBytes is the encoded size one list may not exceed: its block
// offsets are uint32 and relative to the list's start.
const maxListBytes = 1<<32 - 1

// blockSize is B, the number of neighbors per block of an encoded list. It
// is part of the .cbin format, not a tuning knob: a file coded with one B
// decodes as garbage under another (DESIGN.md §10 has the measurement that
// chose it).
const blockSize = 32

// headerBytes is the length of the block-offset header of a list of deg
// neighbors: one uint32 for every block after the first.
func headerBytes(deg int) int {
	return 4 * max((deg+blockSize-1)/blockSize-1, 0)
}

// Compress byte-encodes g. It panics if one vertex's encoded list exceeds
// the 4 GiB per-list cap; TryCompress reports that as an error instead.
func Compress(g *Graph) *CompressedGraph {
	c, err := TryCompress(g)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// TryCompress byte-encodes g in parallel: a first pass sizes every vertex's
// encoded list, an exclusive scan turns the sizes into the offset index,
// and a second pass encodes each list into its slot. Adjacency lists must
// be sorted ascending, which Build guarantees. The only error is a list
// whose encoding exceeds the 4 GiB per-list cap (checkListSizes).
func TryCompress(g *Graph) (*CompressedGraph, error) {
	n := g.NumVertices()
	offsets := make([]uint64, n+1)
	parallel.ForGrained(n, 256, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			offsets[v] = encodeList(nil, Vertex(v), g.Neighbors(Vertex(v)))
		}
	})
	if err := checkListSizes(offsets[:n]); err != nil {
		return nil, err
	}
	data := make([]byte, parallel.ScanExclusive(offsets))
	degrees := make([]uint32, n)
	parallel.ForGrained(n, 256, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nbrs := g.Neighbors(Vertex(v))
			degrees[v] = uint32(len(nbrs))
			encodeList(data[offsets[v]:offsets[v+1]], Vertex(v), nbrs)
		}
	})
	return &CompressedGraph{Offsets: offsets, Degrees: degrees, Data: data, m: uint64(len(g.Adj))}, nil
}

// checkListSizes reports the first vertex whose encoded list size exceeds
// maxListBytes. A list costs at least a byte per neighbor and four per
// further block of 32, so a hub of about 3.8 billion neighbors reaches the
// cap even at one byte per gap: rare, but inside the 32-bit vertex space.
func checkListSizes(sizes []uint64) error {
	for v, s := range sizes {
		if s > maxListBytes {
			return fmt.Errorf("graph: vertex %d's encoded list needs %d bytes, beyond the %d-byte per-list cap of its uint32 block offsets", v, s, uint64(maxListBytes))
		}
	}
	return nil
}

// encodeList block-codes v's sorted list nbrs into dst and returns its
// encoded length; with a nil dst it only measures. Both passes run this one
// function, so the sizes the scan places always match what is written.
func encodeList(dst []byte, v Vertex, nbrs []Vertex) uint64 {
	var scratch [10]byte
	pos := uint64(headerBytes(len(nbrs)))
	for i, u := range nbrs {
		var x uint64
		if i%blockSize == 0 {
			if i > 0 && dst != nil {
				binary.LittleEndian.PutUint32(dst[4*(i/blockSize-1):], uint32(pos))
			}
			x = zigzag(int64(u) - int64(v))
		} else {
			x = uint64(u - nbrs[i-1])
		}
		if dst == nil {
			pos += uint64(putVarint(scratch[:], x))
		} else {
			pos += uint64(putVarint(dst[pos:], x))
		}
	}
	return pos
}

// NumVertices returns the number of vertices.
func (c *CompressedGraph) NumVertices() int { return len(c.Degrees) }

// NumDirectedEdges returns the number of directed edges stored.
func (c *CompressedGraph) NumDirectedEdges() int { return int(c.m) }

// NumEdges returns the number of undirected edges m.
func (c *CompressedGraph) NumEdges() int { return int(c.m) / 2 }

// Degree returns the degree of v.
func (c *CompressedGraph) Degree(v Vertex) int { return int(c.Degrees[v]) }

// SizeBytes returns the resident size of the compressed structure in bytes:
// the offset index, the degree array, and the encoded adjacency.
func (c *CompressedGraph) SizeBytes() int {
	return 8*len(c.Offsets) + 4*len(c.Degrees) + len(c.Data)
}

// NumSegments returns 1.
//
// Deprecated: a CompressedGraph is one segment. The method remains for
// callers of the retired SegmentedGraph.
func (c *CompressedGraph) NumSegments() int { return 1 }

// String summarizes the graph.
func (c *CompressedGraph) String() string {
	return fmt.Sprintf("compressed{n=%d m=%d bytes=%d}", c.NumVertices(), c.NumEdges(), c.SizeBytes())
}

// NeighborsInto decodes v's neighbors into buf (growing it when its capacity
// is insufficient) and returns the decoded slice. The result is valid until
// the next call reusing the same buf.
func (c *CompressedGraph) NeighborsInto(v Vertex, buf []Vertex) []Vertex {
	return decodeList(c.Data, int(c.Offsets[v]), v, int(c.Degrees[v]), buf)
}

// NeighborAt returns the neighbor at position p of v's list. It finds p's
// block through the list's block header and decodes that block only as far
// as p, storing nothing on the way, so position 0 costs one varint. It
// panics, naming v, p and the degree, when p is not below v's degree: the
// bytes past a list's end belong to the next list, so without the check it
// would return an id that may lie outside the graph.
func (c *CompressedGraph) NeighborAt(v Vertex, p int) Vertex {
	deg := int(c.Degrees[v])
	if uint(p) >= uint(deg) {
		panic(fmt.Sprintf("graph: position %d of vertex %d is past its degree %d", p, v, deg))
	}
	data, start := c.Data, int(c.Offsets[v])
	at := start + headerBytes(deg)
	if b := p / blockSize; b > 0 {
		at = start + int(binary.LittleEndian.Uint32(data[start+4*(b-1):]))
	}
	var raw uint64
	for shift := uint(0); ; shift += 7 {
		b := data[at]
		at++
		raw |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	cur := int64(v) + unzigzag(raw)
	for r := p % blockSize; r > 0; r-- {
		b := data[at]
		at++
		if b < 0x80 {
			cur += int64(b)
			continue
		}
		d := uint64(b & 0x7f)
		for shift := uint(7); ; shift += 7 {
			b = data[at]
			at++
			d |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
		}
		cur += int64(d)
	}
	return Vertex(cur)
}

// decodeList decodes all count neighbors of v from its encoded list
// starting at data[pos] into buf, growing buf when its capacity is short.
// The blocks lie back to back after the header, so a whole-list walk skips
// the header and never reads it.
func decodeList(data []byte, pos int, v Vertex, count int, buf []Vertex) []Vertex {
	if cap(buf) < count {
		buf = make([]Vertex, count)
	} else {
		buf = buf[:count]
	}
	pos += headerBytes(count)
	for b := 0; b < count; b += blockSize {
		pos = decodeBlock(data, pos, v, buf[b:min(b+blockSize, count)])
	}
	return buf
}

// decodeBlock decodes len(out) > 0 neighbors of one block of v's list
// starting at data[pos] and returns the position after them: the first is
// zig-zag coded against v, the rest are ascending differences. It is the one
// decode loop every whole-list read runs (NeighborAt is the one positional
// decoder beside it), written against the hoisted data slice with a
// single-byte fast path (the bulk of power-law adjacencies) so no
// per-neighbor function call or re-slice survives.
func decodeBlock(data []byte, pos int, v Vertex, out []Vertex) int {
	var raw uint64
	var shift uint
	for {
		b := data[pos]
		pos++
		if b < 0x80 {
			raw |= uint64(b) << shift
			break
		}
		raw |= uint64(b&0x7f) << shift
		shift += 7
	}
	cur := int64(v) + unzigzag(raw)
	out[0] = Vertex(cur)
	for i := 1; i < len(out); i++ {
		b := data[pos]
		pos++
		if b < 0x80 {
			cur += int64(b)
		} else {
			d := uint64(b & 0x7f)
			shift := uint(7)
			for {
				b = data[pos]
				pos++
				if b < 0x80 {
					d |= uint64(b) << shift
					break
				}
				d |= uint64(b&0x7f) << shift
				shift += 7
			}
			cur += int64(d)
		}
		out[i] = Vertex(cur)
	}
	return pos
}

// Decompress reconstructs the plain CSR graph (used by tests and the CLI's
// format conversion), decoding every list straight into its CSR slot.
func (c *CompressedGraph) Decompress() *Graph {
	n := c.NumVertices()
	offsets := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		offsets[v] = uint64(c.Degrees[v])
	}
	total := parallel.ScanExclusive(offsets)
	adj := make([]Vertex, total)
	parallel.ForGrained(n, 256, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			decodeList(c.Data, int(c.Offsets[v]), Vertex(v), int(c.Degrees[v]), adj[offsets[v]:offsets[v+1]])
		}
	})
	return &Graph{Offsets: offsets, Adj: adj}
}

// Close releases the memory mapping backing a graph opened with LoadCBIN.
// It is a no-op for graphs built in memory or loaded without mmap. The
// graph must not be used after Close.
func (c *CompressedGraph) Close() error {
	if c.mapped == nil {
		return nil
	}
	m := c.mapped
	c.mapped, c.Offsets, c.Degrees, c.Data = nil, nil, nil, nil
	return munmap(m)
}

// The byte-code primitives live in internal/varint (shared with the wire
// protocol and the WAL's compressed record payloads); these aliases keep
// the codec above reading naturally.
func zigzag(x int64) uint64              { return varint.Zigzag(x) }
func unzigzag(u uint64) int64            { return varint.Unzigzag(u) }
func putVarint(buf []byte, x uint64) int { return varint.Put(buf, x) }
