package workload

// A packed reference is one uint64: the instruction gap in the high 32 bits,
// the line address in the low 32. Line addresses from the generators are
// working-set indices (the simulator itself assumes addresses fit in 40 bits
// before core tagging), so 32 bits is not a practical restriction.

// UnpackRef splits a packed reference into its instruction gap and line
// address.
func UnpackRef(v uint64) (gap int, addr uint64) {
	return int(v >> 32), v & (1<<32 - 1)
}

// PackedApp is implemented by apps that can hand out their upcoming
// references as packed slices (see UnpackRef), advancing past them: apps
// whose references already sit in memory, read in place with no
// per-reference interface call. An empty return means the app cannot serve
// packed reads (any longer) and the caller must fall back to Next; returned
// slices are immutable and remain valid indefinitely.
type PackedApp interface {
	App
	NextPacked() []uint64
}

// readBatch is the number of references a RefReader buffers at a time:
// enough to amortize a NextBatch call, small enough to stay in L1.
const readBatch = 256

// RefReader reads an app's references one at a time, through its bulk path
// when it offers one: a load from a buffer instead of an interface call per
// reference. A BatchApp fills the buffer through NextBatch. A PackedApp's
// slices are unpacked into it until its packed reads run dry, and then it
// is read through Next. The draws are the same either way, but a batched
// reader draws up to readBatch references ahead of what it has returned.
type RefReader struct {
	app    App
	packed PackedApp // nil once packed reads ran dry, or if app has none
	batch  BatchApp  // nil if app is packed or has no NextBatch
	refs   []uint64  // packed references not yet unpacked
	gaps   []int32   // the buffer, with addrs; [pos:] is unread
	addrs  []uint64
	pos    int
}

// NewRefReader returns a reader positioned at app's next reference.
func NewRefReader(app App) RefReader {
	r := RefReader{app: app}
	if r.packed, _ = app.(PackedApp); r.packed == nil {
		r.batch, _ = app.(BatchApp)
	}
	return r
}

// Next returns the app's next reference.
func (r *RefReader) Next() (gap int, addr uint64) {
	if r.pos < len(r.addrs) {
		r.pos++
		return int(r.gaps[r.pos-1]), r.addrs[r.pos-1]
	}
	return r.refill()
}

// refill refills the buffer and returns its first reference, or reads the
// app through Next once it has no bulk path (left).
func (r *RefReader) refill() (gap int, addr uint64) {
	if r.packed != nil && len(r.refs) == 0 {
		if r.refs = r.packed.NextPacked(); len(r.refs) == 0 {
			r.packed = nil
		}
	}
	if r.packed == nil && r.batch == nil {
		return r.app.Next()
	}
	if r.gaps == nil {
		r.gaps, r.addrs = make([]int32, readBatch), make([]uint64, readBatch)
	}
	if r.packed != nil {
		n := min(len(r.refs), readBatch)
		r.gaps, r.addrs = r.gaps[:n], r.addrs[:n]
		for i, v := range r.refs[:n] {
			r.gaps[i], r.addrs[i] = int32(v>>32), v&(1<<32-1)
		}
		r.refs = r.refs[n:]
	} else {
		r.batch.NextBatch(r.gaps, r.addrs)
	}
	r.pos = 1
	return int(r.gaps[0]), r.addrs[0]
}
