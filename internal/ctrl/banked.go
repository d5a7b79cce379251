package ctrl

import (
	"fmt"

	"vantage/internal/cache"
	"vantage/internal/hash"
)

// Banked composes several per-bank controllers into one address-interleaved
// cache, the way the paper's 8 MB L2 is organized (Table 2: 4 banks, each
// with its own Vantage controller and per-partition state; Fig 4's register
// budget is quoted per bank). Addresses are distributed across banks by a
// hash, and capacity targets are split evenly: with good hashing each
// partition's footprint spreads uniformly, so per-bank targets of T/N lines
// implement a global target of T.
type Banked struct {
	banks []Controller
	// mixedBanks[i] is banks[i]'s mixed fast path, or nil; pre-resolved so
	// the per-access path does no type assertions.
	mixedBanks []MixedController
	h          *hash.H3
	mask       uint64
	parts      int
	per        []int // SetTargets' per-bank share, reused
}

// NewBanked returns a banked controller over the given per-bank
// controllers, which must all have the same partition count. The bank count
// must be a power of two.
func NewBanked(banks []Controller, seed uint64) *Banked {
	if len(banks) == 0 || len(banks)&(len(banks)-1) != 0 {
		panic(fmt.Sprintf("ctrl: bank count %d must be a power of two", len(banks)))
	}
	parts := banks[0].NumPartitions()
	for _, b := range banks {
		if b.NumPartitions() != parts {
			panic("ctrl: banks disagree on partition count")
		}
	}
	mixed := make([]MixedController, len(banks))
	for i, b := range banks {
		mixed[i], _ = b.(MixedController)
	}
	return &Banked{
		banks:      banks,
		mixedBanks: mixed,
		h:          hash.NewH3(16, hash.Mix64(seed^0xbabe)),
		mask:       uint64(len(banks) - 1),
		parts:      parts,
	}
}

// Name implements Controller.
func (b *Banked) Name() string {
	return fmt.Sprintf("%s x%d", b.banks[0].Name(), len(b.banks))
}

// Array implements Controller; it returns the first bank's array (banked
// caches have no single array — use Bank to reach the others).
func (b *Banked) Array() cache.Array { return b.banks[0].Array() }

// Access implements Controller.
func (b *Banked) Access(addr uint64, part int) AccessResult {
	return b.AccessMixed(addr, hash.Mix64(addr), part)
}

// AccessMixed implements MixedController: the bank routing hash and the
// bank's own access path share one Mix64 of the address.
func (b *Banked) AccessMixed(addr, mixed uint64, part int) AccessResult {
	i := b.h.Hash(mixed) & b.mask
	if mb := b.mixedBanks[i]; mb != nil {
		return mb.AccessMixed(addr, mixed, part)
	}
	return b.banks[i].Access(addr, part)
}

// SetTargets implements Controller: global line targets are divided evenly
// across banks (see SplitEven).
func (b *Banked) SetTargets(targets []int) {
	for bi, bank := range b.banks {
		b.per = SplitEven(b.per, targets, bi, len(b.banks))
		bank.SetTargets(b.per)
	}
}

// SplitEven returns bank's shares of the targets split evenly over n banks,
// remainders to the lower banks, in dst resized to len(targets).
func SplitEven(dst, targets []int, bank, n int) []int {
	dst = dst[:0]
	for _, t := range targets {
		share := t / n
		if bank < t%n {
			share++
		}
		dst = append(dst, share)
	}
	return dst
}

// Size implements Controller: the sum over banks.
func (b *Banked) Size(part int) int {
	total := 0
	for _, bank := range b.banks {
		total += bank.Size(part)
	}
	return total
}

// NumPartitions implements Controller.
func (b *Banked) NumPartitions() int { return b.parts }

// SnapshotPartitions implements Snapshotter when every bank does: the
// element-wise sum of the per-bank snapshots. Banks that cannot snapshot
// contribute only their Size.
func (b *Banked) SnapshotPartitions(dst []PartitionSnapshot) []PartitionSnapshot {
	base := len(dst)
	for p := 0; p < b.parts; p++ {
		dst = append(dst, PartitionSnapshot{})
	}
	per := make([]PartitionSnapshot, 0, b.parts)
	for _, bank := range b.banks {
		if sn, ok := bank.(Snapshotter); ok {
			per = sn.SnapshotPartitions(per[:0])
			for p := range per {
				d := &dst[base+p]
				d.Size += per[p].Size
				d.Target += per[p].Target
				d.Hits += per[p].Hits
				d.Misses += per[p].Misses
				d.Demotions += per[p].Demotions
				d.Promotions += per[p].Promotions
			}
			continue
		}
		for p := 0; p < b.parts; p++ {
			dst[base+p].Size += bank.Size(p)
		}
	}
	return dst
}

// Banks returns the bank count.
func (b *Banked) Banks() int { return len(b.banks) }

// Bank returns bank i's controller.
func (b *Banked) Bank(i int) Controller { return b.banks[i] }

var _ Controller = (*Banked)(nil)
var _ MixedController = (*Banked)(nil)
