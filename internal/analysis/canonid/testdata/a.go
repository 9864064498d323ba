// Package a is the canonid analyzer fixture: a miniature e-graph with
// every canonical and non-canonical way of indexing a class table, in
// its map form and in its dense (slice) form.
package a

type ClassID int

type Class struct{ ID ClassID }

type uf struct{ parent []ClassID }

func (u *uf) find(id ClassID) ClassID    { return u.parent[id] }
func (u *uf) makeSet() ClassID           { return 0 }
func (u *uf) union(a, b ClassID) ClassID { return a }

type EGraph struct {
	classes map[ClassID]*Class
	uf      uf
}

func (g *EGraph) Find(id ClassID) ClassID { return g.uf.find(id) }

// bad is the seeded violation: a raw parameter indexes the class map.
func (g *EGraph) bad(id ClassID) *Class {
	return g.classes[id] // want `class table indexed with a value not canonicalized through Find`
}

func (g *EGraph) badRangeValues(ids []ClassID) {
	for _, id := range ids {
		_ = g.classes[id] // want `not canonicalized through Find`
	}
}

func (g *EGraph) goodFind(id ClassID) *Class {
	return g.classes[g.Find(id)]
}

func (g *EGraph) goodReassign(id ClassID) *Class {
	id = g.Find(id)
	return g.classes[id]
}

// goodTrusted documents a caller contract.
//
//lint:canonical id
func (g *EGraph) goodTrusted(id ClassID) *Class {
	return g.classes[id]
}

func (g *EGraph) goodAnnotated(id ClassID) *Class {
	//lint:canonical fixture: pretend the caller canonicalizes
	return g.classes[id]
}

func (g *EGraph) goodClassField(c *Class) *Class {
	return g.classes[c.ID]
}

func (g *EGraph) goodConversion(i int) *Class {
	return g.classes[ClassID(i)]
}

func (g *EGraph) goodFresh() *Class {
	id := g.uf.makeSet()
	return g.classes[id]
}

func (g *EGraph) goodUnionRoot(a, b ClassID) *Class {
	root := g.uf.union(g.Find(a), g.Find(b))
	return g.classes[root]
}

func (g *EGraph) goodRangeKeys() {
	for id := range g.classes {
		_ = g.classes[id]
	}
}

type View struct {
	find []ClassID
	byID map[ClassID]*Class
}

// goodFrozenTable reads the frozen find table, the pure-lookup
// equivalent of Find.
func (v *View) goodFrozenTable(id ClassID) *Class {
	return v.byID[v.find[id]]
}

// Dense is the slice form: table holds a class only at canonical ids
// and is marked; parent is indexed by raw ids on purpose and is not.
type Dense struct {
	parent []ClassID
	uf     uf
	//lint:classtable
	table []*Class
	fixed [8]*Class //lint:classtable
}

func (d *Dense) Find(id ClassID) ClassID { return d.uf.find(id) }

// badDense is the seeded violation for the slice form.
func (d *Dense) badDense(id ClassID) *Class {
	return d.table[id] // want `class table indexed with a value not canonicalized through Find`
}

func (d *Dense) badDenseWrite(ids []ClassID) {
	for _, id := range ids {
		d.table[id] = nil // want `not canonicalized through Find`
	}
}

func (d *Dense) badDenseArray(id ClassID) *Class {
	return d.fixed[id] // want `not canonicalized through Find`
}

func (d *Dense) goodDenseFind(id ClassID) *Class {
	return d.table[d.Find(id)]
}

func (d *Dense) goodDenseRoot(a, b ClassID) {
	root := d.uf.union(d.Find(a), d.Find(b))
	d.table[root] = nil
}

func (d *Dense) goodDenseClassField(c *Class) *Class {
	return d.table[c.ID]
}

// goodRawTable indexes the unmarked parent array with a raw id: that is
// what a union-find does.
func (d *Dense) goodRawTable(id ClassID) ClassID {
	return d.parent[id]
}

// goodDenseFrozen reads a marked table through a frozen find table.
func (v *View) goodDenseFrozen(d *Dense, id ClassID) *Class {
	return d.table[v.find[id]]
}
