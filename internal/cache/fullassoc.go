package cache

// faIndex answers lookup and victim choice for a one-set (fully
// associative) cache in O(1), where the scan in Cache.lookup and
// Cache.victim walks every way: Table 9's 64 KB/32 B "fa" cache has
// 2,048 ways. New builds one whenever the geometry has a single set;
// set-associative caches keep the scan.
//
// Way numbering is exactly the scan's, so every Stats field is
// identical either way. In a one-set cache only Flush invalidates, so
// ways fill in order from 0 and the lowest never-filled way is the fill
// count. Once every way is full, LRU's victim is the tail of the recency
// list; FIFO's is a round-robin cursor, since fill order is way order;
// Random draws rng.Intn(ways) as the scan does.
type faIndex struct {
	// slots is an open-addressed tag → way table: a power-of-two length
	// at least twice the way count, Fibonacci hashing, linear probing and
	// backward-shift deletion. A flat table rather than a Go map, since
	// Access is a hot root and hotlint rejects map indexing there.
	slots []faSlot
	shift uint // 64 − log2(len(slots))
	mask  uint64
	// prev and next link the present ways from most recently used
	// (head) to least (tail); -1 ends the list.
	prev, next []int32
	head, tail int32
	// filled counts the ways filled since the last Flush.
	filled int
	// cursor is FIFO's next victim once every way has been filled.
	cursor int
}

// faSlot maps a tag to way+1; a zero way marks an empty slot.
type faSlot struct {
	tag uint64
	way int32
}

func newFAIndex(ways int) *faIndex {
	n := 2
	for n < 2*ways {
		n <<= 1
	}
	x := &faIndex{
		slots: make([]faSlot, n),
		mask:  uint64(n - 1),
		prev:  make([]int32, ways),
		next:  make([]int32, ways),
	}
	x.shift = 64
	for s := n; s > 1; s >>= 1 {
		x.shift--
	}
	x.reset()
	return x
}

// reset empties the index, as Flush empties the cache.
func (x *faIndex) reset() {
	clear(x.slots)
	x.head, x.tail = -1, -1
	x.filled, x.cursor = 0, 0
}

// home returns tag's preferred slot.
func (x *faIndex) home(tag uint64) uint64 {
	return (tag * 0x9E3779B97F4A7C15) >> x.shift
}

// find returns the way holding tag, or -1: the probe stops at tag's
// slot or at an empty one, whose stored way+1 is 0.
func (x *faIndex) find(tag uint64) int {
	i := x.home(tag)
	for x.slots[i].way != 0 && x.slots[i].tag != tag {
		i = (i + 1) & x.mask
	}
	return int(x.slots[i].way) - 1
}

// remove deletes tag, which must be present, and shifts back the
// entries probed past its slot so that no probe sequence breaks.
func (x *faIndex) remove(tag uint64) {
	i := x.home(tag)
	for x.slots[i].way == 0 || x.slots[i].tag != tag {
		i = (i + 1) & x.mask
	}
	for j := (i + 1) & x.mask; x.slots[j].way != 0; j = (j + 1) & x.mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-x.home(x.slots[j].tag))&x.mask >= (j-i)&x.mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = faSlot{}
}

// fill re-keys way w of set, the victim Cache.victim chose, from the tag
// it holds (if any) to tag, moves w to the head of the recency list, and
// advances the fill count or the FIFO cursor.
func (x *faIndex) fill(set []line, w int, tag uint64) {
	if set[w].present() {
		x.remove(set[w].tag)
	}
	i := x.home(tag)
	for x.slots[i].way != 0 {
		i = (i + 1) & x.mask
	}
	x.slots[i] = faSlot{tag: tag, way: int32(w) + 1}
	if w == x.filled {
		x.filled++
		x.push(w)
		return
	}
	x.touch(w)
	if x.cursor++; x.cursor == len(x.next) {
		x.cursor = 0
	}
}

// push links a way that has not been filled since the last reset at
// the head of the recency list.
func (x *faIndex) push(way int) {
	w := int32(way)
	x.prev[w], x.next[w] = -1, x.head
	if x.head >= 0 {
		x.prev[x.head] = w
	} else {
		x.tail = w
	}
	x.head = w
}

// touch moves a present way to the head of the recency list.
func (x *faIndex) touch(way int) {
	w := int32(way)
	if w == x.head {
		return
	}
	p, n := x.prev[w], x.next[w]
	x.next[p] = n
	if n >= 0 {
		x.prev[n] = p
	} else {
		x.tail = p
	}
	x.prev[w], x.next[w] = -1, x.head
	x.prev[x.head] = w
	x.head = w
}
