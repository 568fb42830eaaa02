package store

import "slices"

// dir is a copy-on-write directory of units: a relation's segment list, its
// intern-shard list, one index's shard list, or the facts of one index
// bucket.  While it holds at most unit
// entries it is one flat slice, which a fork copies whole.  Past that it is a
// top of pages of at most unit entries, each page stamped like the units it
// points to (forkIDs): a fork copies the top, one pointer per unit units, and
// a write copies the one page above the unit it replaces.  The shard lists
// keep every page full, so at and set index them; the segment list and the
// buckets, whose sweeps leave pages short, are walked and appended to,
// never indexed.
type dir[T comparable] struct {
	flat []T
	top  *dirTop[T] // nil while the directory is flat
}

type dirTop[T comparable] struct {
	pages []*dirPage[T] // one or more, none empty
	n     int           // entries over all pages
}

type dirPage[T comparable] struct {
	owner uint64
	items []T
}

func (d *dir[T]) len() int {
	if d.top == nil {
		return len(d.flat)
	}
	return d.top.n
}

func (d *dir[T]) npages() int {
	if d.top == nil {
		return 1
	}
	return len(d.top.pages)
}

func (d *dir[T]) page(p int) []T {
	if d.top == nil {
		return d.flat
	}
	return d.top.pages[p].items
}

// own returns page p for a write by the relation numbered id, copying it
// first if it belongs to a relation this one was forked from.  The flat
// slice is always the holder's own: a fork copies it.
func (d *dir[T]) own(id uint64, p int) []T {
	if d.top == nil {
		return d.flat
	}
	if pg := d.top.pages[p]; pg.owner != id {
		d.top.pages[p] = &dirPage[T]{owner: id, items: append(make([]T, 0, unit), pg.items...)}
	}
	return d.top.pages[p].items
}

// at returns entry i of a directory whose pages are full.
func (d *dir[T]) at(i int) T { return d.page(i / unit)[i%unit] }

// set replaces entry i of a directory whose pages are full.
func (d *dir[T]) set(id uint64, i int, v T) { d.own(id, i/unit)[i%unit] = v }

// last returns the newest entry, or the zero value.
func (d *dir[T]) last() (v T) {
	if items := d.page(d.npages() - 1); len(items) > 0 {
		v = items[len(items)-1]
	}
	return v
}

// setLast replaces the newest entry.
func (d *dir[T]) setLast(id uint64, v T) {
	items := d.own(id, d.npages()-1)
	items[len(items)-1] = v
}

// push appends an entry on behalf of the relation numbered id.
func (d *dir[T]) push(id uint64, v T) {
	if d.top == nil {
		if len(d.flat) < unit {
			d.flat = append(d.flat, v)
			return
		}
		d.top = &dirTop[T]{pages: []*dirPage[T]{{owner: id, items: d.flat}}, n: len(d.flat)}
		d.flat = nil
	}
	t := d.top
	t.n++
	if k := len(t.pages) - 1; len(t.pages[k].items) < unit {
		items := d.own(id, k) // may replace page k
		t.pages[k].items = append(items, v)
		return
	}
	t.pages = append(t.pages, &dirPage[T]{owner: id, items: append(make([]T, 0, unit), v)})
}

// each calls f with the entries in order.  Entries pushed meanwhile may or
// may not be reached.
func (d *dir[T]) each(f func(T)) {
	for p := range d.npages() {
		for _, v := range d.page(p) {
			f(v)
		}
	}
}

// sweepBack walks the entries newest first for as long as f returns more,
// putting in each place the entry f returns.  A page is copied before its
// first changed entry; an entry replaced by the zero value leaves the
// directory, and a page it empties leaves the top.  Pages it does not walk
// are not touched, and pages it walks without a change are not copied.
func (d *dir[T]) sweepBack(id uint64, f func(T) (T, bool)) {
	var zero T
	p, more, emptied := d.npages()-1, true, false
	for ; p >= 0 && more; p-- {
		items := d.page(p)
		for i := len(items) - 1; i >= 0 && more; i-- {
			var v T
			if v, more = f(items[i]); v != items[i] {
				items = d.own(id, p)
				items[i] = v
				emptied = emptied || v == zero
			}
		}
	}
	if !emptied {
		return
	}
	isZero := func(v T) bool { return v == zero }
	if d.top == nil {
		d.flat = slices.DeleteFunc(d.flat, isZero)
		return
	}
	t := d.top
	kept := t.pages[:p+1]
	for _, pg := range t.pages[p+1:] {
		// A page holds a zero entry only if this walk wrote it, and so owns it.
		if items := slices.DeleteFunc(pg.items, isZero); len(items) < len(pg.items) {
			t.n -= len(pg.items) - len(items)
			pg.items = items
		}
		if len(pg.items) > 0 {
			kept = append(kept, pg)
		}
	}
	clear(t.pages[len(kept):])
	if t.pages = kept; len(kept) == 0 {
		d.top = nil
	}
}

// span returns the run of entries [lo, lo+n) of a shard directory of depth
// bits that list the table of local depth depth listed at entry i: the
// entries whose top depth bits are i's.
func span(i int, bits uint, depth uint8) (lo, n int) {
	n = 1 << (bits - uint(depth))
	return i &^ (n - 1), n
}

// fill lists v at entries [lo, lo+n) of a directory whose pages are full.
func (d *dir[T]) fill(id uint64, lo, n int, v T) {
	for i := lo; i < lo+n; i++ {
		d.set(id, i, v)
	}
}

// spread returns the directory with every entry listed k times in a row: a
// shard directory k times as deep, by a pointer copy.
func (d *dir[T]) spread(id uint64, k int) dir[T] {
	next := dir[T]{flat: make([]T, 0, min(k*d.len(), unit))}
	d.each(func(v T) {
		for range k {
			next.push(id, v)
		}
	})
	return next
}

// split lists hi, which has taken from the table listed at entry i the
// entries whose next hash bit is 1, at the upper half of that table's run;
// both are now of local depth depth.  A table that was as deep as the
// directory (*bits) doubles it first.
func (d *dir[T]) split(id uint64, bits *uint, i int, depth uint8, hi T) {
	if uint(depth) > *bits {
		*d, *bits, i = d.spread(id, 2), *bits+1, 2*i
	}
	lo, n := span(i, *bits, depth-1)
	d.fill(id, lo+n/2, n/2, hi)
}

// clone returns the directory a fork starts from: the flat slice or the top
// is copied, and the pages are shared until written.  A positive spare
// copies the flat slice with room for exactly that many more entries, up to
// unit, for a write that pushes right after the copy.
func (d *dir[T]) clone(spare int) dir[T] {
	if d.top == nil {
		if spare > 0 {
			return dir[T]{flat: append(make([]T, 0, min(len(d.flat)+spare, unit)), d.flat...)}
		}
		return dir[T]{flat: slices.Clone(d.flat)}
	}
	return dir[T]{top: &dirTop[T]{pages: slices.Clone(d.top.pages), n: d.top.n}}
}
