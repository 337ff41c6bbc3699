package spectrum

import "addcrn/internal/netmodel"

// coverIndex is the static inverse of a PU→SU CSR table, the lookup
// structure behind the eligibility-indexed primary-user path. It holds:
//
//   - for every secondary node, the bitmask of primary users covering it;
//   - for every primary user, a range of words (rowOff) for bitsets over its
//     row positions, so that iterating set bits follows CSR row order;
//   - for every (node, covering user) pair, the node's absolute bit
//     position in those row bitsets — rowOff[user]*64 plus its rank in the
//     row.
//
// Bitsets are multi-word on both axes, so neither the node count nor the PU
// count is capped.
//
// The index is a pure function of its table and is memoized on it (see
// netmodel.CSRTable.Companion): every tracker over a shared table shares one
// index.
type coverIndex struct {
	table    *netmodel.CSRTable
	numNodes int
	pw       int      // words per node PU mask
	mask     []uint64 // mask[v*pw:(v+1)*pw]: PUs covering node v
	rowOff   []int32  // PU i's row bitsets span words rowOff[i]:rowOff[i+1]
	invOff   []int32  // node v's entries span invOff[v]:invOff[v+1]
	invPU    []int32  // covering PU of each entry, ascending per node
	invBit   []int32  // absolute row-space bit position of each entry
}

// coverIndexOf returns the memoized cover index of the PU table tab over a
// network of numNodes secondary nodes.
func coverIndexOf(tab *netmodel.CSRTable, numNodes int) *coverIndex {
	c := tab.Companion(func(tab *netmodel.CSRTable) any { return buildCoverIndex(tab, numNodes) }).(*coverIndex)
	if c.numNodes != numNodes {
		panic("spectrum: PU neighbor table shared across networks of different sizes")
	}
	return c
}

func buildCoverIndex(tab *netmodel.CSRTable, numNodes int) *coverIndex {
	np := tab.NumRows()
	c := &coverIndex{
		table:    tab,
		numNodes: numNodes,
		pw:       bitWords(np),
		rowOff:   make([]int32, np+1),
		invOff:   make([]int32, numNodes+1),
		invPU:    make([]int32, tab.Len()),
		invBit:   make([]int32, tab.Len()),
	}
	c.mask = make([]uint64, numNodes*c.pw)
	for i := range int32(np) {
		row := tab.Row(i)
		c.rowOff[i+1] = c.rowOff[i] + int32(bitWords(len(row)))
		for _, v := range row {
			c.invOff[v+1]++
			c.mask[int(v)*c.pw+int(i>>6)] |= 1 << (uint(i) & 63)
		}
	}
	for v := range numNodes {
		c.invOff[v+1] += c.invOff[v]
	}
	fill := append([]int32(nil), c.invOff[:numNodes]...)
	for i := range int32(np) {
		for r, v := range tab.Row(i) {
			k := fill[v]
			fill[v]++
			c.invPU[k] = i
			c.invBit[k] = c.rowOff[i]*64 + int32(r)
		}
	}
	return c
}

// CoverIndexBytes approximates the heap cost of the cover index a tracker
// derives from PU table tab over numNodes secondary nodes and memoizes on
// the table, for callers that account for the memory a shared table holds.
func CoverIndexBytes(tab *netmodel.CSRTable, numNodes int) int64 {
	np := int64(tab.NumRows())
	return 8*int64(numNodes)*int64(bitWords(int(np))) + 4*(np+1) + 4*int64(numNodes+1) + 8*int64(tab.Len())
}

// totalRowWords returns the number of words one row-space bitset family
// (one bitset per PU) spans.
func (c *coverIndex) totalRowWords() int { return int(c.rowOff[len(c.rowOff)-1]) }

// rank returns node's position in PU i's row, or -1 when i does not cover
// it.
func (c *coverIndex) rank(i, node int32) int32 {
	for k := c.invOff[node]; k < c.invOff[node+1]; k++ {
		if c.invPU[k] == i {
			return c.invBit[k] - c.rowOff[i]*64
		}
	}
	return -1
}

// bitWords returns how many uint64 words a bitset of n bits needs.
func bitWords(n int) int { return (n + 63) / 64 }

func bitHas(s []uint64, i int32) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

func bitSet(s []uint64, i int32) { s[i>>6] |= 1 << (uint(i) & 63) }

func bitClear(s []uint64, i int32) { s[i>>6] &^= 1 << (uint(i) & 63) }

// resizeWords returns s with length n and every word zero, reusing its
// backing array when the capacity fits.
func resizeWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
