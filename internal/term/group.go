package term

// KindGroup marks a grouping term <t>.  Grouping terms are pure syntax
// (§2.1): they may appear in rule heads (and, in LDL1.5, as body patterns),
// but never inside a ground element of U.
const KindGroup Kind = 100

// Group is the grouping construct <Inner>.  In core LDL1 the inner term is a
// variable and the group must be a direct head argument; LDL1.5 (§4)
// additionally allows nested groups over tuple terms, which the rewrite
// package compiles away.
type Group struct {
	Inner Term
}

func (*Group) Kind() Kind { return KindGroup }

func (g *Group) String() string { return string(AppendText(nil, g)) }

// NewGroup builds <inner>.
func NewGroup(inner Term) *Group { return &Group{Inner: inner} }

// ContainsGroup reports whether t contains a grouping construct anywhere.
func ContainsGroup(t Term) bool {
	switch t := t.(type) {
	case *Group:
		return true
	case *Compound:
		for _, a := range t.Args {
			if ContainsGroup(a) {
				return true
			}
		}
	}
	return false
}
