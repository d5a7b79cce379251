package workload

// MissRateCurve computes an application's exact LRU miss-rate curve with
// Mattson's stack algorithm: one pass over n references from the app
// records each access's stack distance (number of distinct lines touched
// since the previous access to the same line), and the curve follows from
// the distance histogram. This is the offline ground truth that UMON-DSS
// approximates with sampled auxiliary tags, useful for validating monitors
// and for allocation studies that want oracle curves.
//
// The returned curve has len(sizes) entries: curve[i] is the miss ratio
// (misses per reference, compulsory misses included) of an LRU cache with
// sizes[i] lines. sizes must be ascending.
func MissRateCurve(app App, n int, sizes []int) []float64 {
	if n <= 0 {
		panic("workload: non-positive reference count")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			panic("workload: sizes must be ascending")
		}
	}
	d := newDistanceTracker()
	// histogram of stack distances, capped at the largest size.
	maxSize := 0
	if len(sizes) > 0 {
		maxSize = sizes[len(sizes)-1]
	}
	hist := make([]int, maxSize+1)
	infinite := 0 // cold misses / distances beyond maxSize
	// A RefReader takes the packed bulk path when the app offers one
	// (replay cursors do): same draws, no interface call per reference.
	rr := NewRefReader(app)
	for i := 0; i < n; i++ {
		_, addr := rr.Next()
		dist := d.access(addr)
		if dist < 0 || dist >= len(hist) {
			infinite++
		} else {
			hist[dist]++
		}
	}
	curve := make([]float64, len(sizes))
	// hits with cache size s = accesses with stack distance < s.
	cum := 0
	prev := 0
	for i, s := range sizes {
		for dist := prev; dist < s && dist < len(hist); dist++ {
			cum += hist[dist]
		}
		prev = s
		curve[i] = 1 - float64(cum)/float64(n)
	}
	return curve
}

// MissRateCurveRecorded computes the curve over a recording's replay cursor
// instead of a live app, so miss-curve construction shares the memoized
// stream with the simulation runs rather than regenerating it (and leaves
// the recording's other cursors untouched). Identical to MissRateCurve over
// the source app: replay is draw-for-draw equivalent.
func MissRateCurveRecorded(rec *Recording, n int, sizes []int) []float64 {
	return MissRateCurve(rec.Replay(), n, sizes)
}

// distanceTracker computes exact LRU stack distances with an order-statistic
// treap keyed by last-access time: the stack distance of an access is the
// number of lines accessed more recently than the line's previous access.
type distanceTracker struct {
	last map[uint64]uint64 // line -> last access time
	root *treapNode
	seq  uint64
	rng  uint64
}

func newDistanceTracker() *distanceTracker {
	return &distanceTracker{last: make(map[uint64]uint64), rng: 0x9e3779b97f4a7c15}
}

type treapNode struct {
	key         uint64 // access time
	prio        uint64
	size        int
	left, right *treapNode
}

func sz(n *treapNode) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *treapNode) update() { n.size = 1 + sz(n.left) + sz(n.right) }

// split partitions by key: left < key <= right.
func split(n *treapNode, key uint64) (l, r *treapNode) {
	if n == nil {
		return nil, nil
	}
	if n.key < key {
		n.right, r = split(n.right, key)
		n.update()
		return n, r
	}
	l, n.left = split(n.left, key)
	n.update()
	return l, n
}

func merge(l, r *treapNode) *treapNode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		l.right = merge(l.right, r)
		l.update()
		return l
	default:
		r.left = merge(l, r.left)
		r.update()
		return r
	}
}

// countGreater returns the number of keys strictly greater than key.
func countGreater(n *treapNode, key uint64) int {
	count := 0
	for n != nil {
		if n.key > key {
			count += 1 + sz(n.right)
			n = n.left
		} else {
			n = n.right
		}
	}
	return count
}

// remove deletes key from the treap (must be present).
func remove(n *treapNode, key uint64) *treapNode {
	if n == nil {
		return nil
	}
	if n.key == key {
		return merge(n.left, n.right)
	}
	if key < n.key {
		n.left = remove(n.left, key)
	} else {
		n.right = remove(n.right, key)
	}
	n.update()
	return n
}

func (d *distanceTracker) nextPrio() uint64 {
	x := d.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	d.rng = x
	return x * 0x2545f4914f6cdd1d
}

// access records one reference and returns its stack distance (-1 for a
// cold miss).
func (d *distanceTracker) access(addr uint64) int {
	d.seq++
	now := d.seq
	prev, seen := d.last[addr]
	dist := -1
	if seen {
		dist = countGreater(d.root, prev)
		d.root = remove(d.root, prev)
	}
	node := &treapNode{key: now, prio: d.nextPrio(), size: 1}
	l, r := split(d.root, now)
	d.root = merge(merge(l, node), r)
	d.last[addr] = now
	return dist
}
