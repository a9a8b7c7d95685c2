// Package ofconn stands in for the tree's switch connection.
package ofconn

// Batch is one write's messages.
type Batch struct{ n int }

// Add appends a message.
func (b *Batch) Add(any) { b.n++ }

// Conn is a switch connection.
type Conn struct{}

// WriteBatch is the install write.
func (c *Conn) WriteBatch(*Batch) error { return nil }
