package testdata

import (
	"samsys/internal/fabric/rtnode"
	"samsys/internal/wire"
)

// rtnode.Link.Send is the hop between a fabric Ctx.Send and the transport
// the node's link table names for the destination; a TCP link or a lane
// behind it encodes the payload with the wire registry, so wirereg treats
// the interface method itself as a wire boundary — whichever link is
// installed at run time.

type linkMsg struct {
	Seq int
}

type linkHelperMsg struct {
	N int
}

type linkReg struct {
	Seq int
}

func init() {
	wire.Register("td.linkreg",
		func(e *wire.Encoder, m linkReg) { e.Int(m.Seq) },
		func(d *wire.Decoder) linkReg { return linkReg{Seq: d.Int()} })
}

func pushLink(l rtnode.Link, seq int) {
	l.Send(8, linkMsg{Seq: seq}) // want wirereg "linkMsg"
	l.Send(8, linkReg{Seq: seq}) // registered above: clean
}

// The payload flows through an interface-typed parameter; the summary
// carries the obligation to the call site.
func forwardLink(l rtnode.Link, payload any) {
	l.Send(8, payload)
}

func sendsLinkViaHelper(l rtnode.Link) {
	forwardLink(l, linkHelperMsg{N: 1}) // want wirereg "linkHelperMsg"
	forwardLink(l, linkReg{Seq: 2})     // registered: clean
}
