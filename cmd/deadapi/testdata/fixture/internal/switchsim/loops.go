package switchsim

// LoopGroup is inert.
type LoopGroup struct{}

// NewLoopGroup starts nothing.
func NewLoopGroup() *LoopGroup { return &LoopGroup{} }
