package egraph

// Analysis attaches semantic data to every e-class, in the style of
// egg's e-class analyses (Willsey et al. 2020). TENSAT uses an analysis
// to carry tensor shapes and layout information for the shape checking
// described in §4 and §6 of the paper.
//
// The invariant maintained by the e-graph is
//
//	class.Data == Merge over nodes n in class of Make(g, n)
//
// Make is called when a node is first added, unless AddData supplies
// its data, which must equal Make's; Merge joins the data of two classes
// being unioned (and again whenever a node's recomputed data must be
// folded into its class during rebuilding).
type Analysis interface {
	// Make computes the analysis data for a single (canonical) node. It
	// may read g (Class, Find) but must not change it, and n.Children
	// is the e-graph's own storage: valid for the call, not to be kept.
	Make(g *EGraph, n Node) any
	// Merge joins two data values. It returns the joined value and
	// whether it differs from a (the receiving class's current data);
	// a "true" answer re-enqueues the class's parents for repair so
	// the analysis reaches a fixpoint.
	Merge(a, b any) (merged any, changed bool)
}

// nopAnalysis is used when the client passes a nil Analysis.
type nopAnalysis struct{}

func (nopAnalysis) Make(*EGraph, Node) any     { return nil }
func (nopAnalysis) Merge(a, _ any) (any, bool) { return a, false }
