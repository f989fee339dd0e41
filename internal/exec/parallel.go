package exec

import (
	"sebdb/internal/index/bitmap"
)

// blockIDs materialises a bitmap's set bits in ascending order, the
// work list a parallel operator fans out over.
func blockIDs(b *bitmap.Bitmap) []uint64 {
	out := make([]uint64, 0, b.Count())
	b.ForEach(func(bid int) bool {
		out = append(out, uint64(bid))
		return true
	})
	return out
}
