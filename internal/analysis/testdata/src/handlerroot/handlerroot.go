// Fixture for goroconfine's handler roots: the callbacks handed to
// NewHandler run as a thread, so their accesses to confined fields are
// sanctioned; the same access from an unrooted function is not.
package handlerroot

import "handlerroot/rtm"

// Server models CRAS's I/O-done manager: a completion queue the handler
// thread appends to.
type Server struct {
	doneQ    []int //crasvet:confined
	costs    int   //crasvet:confined
	stopping bool
}

// New is the pre-concurrency construction path.
//
//crasvet:init
func New(k *rtm.Kernel, port *rtm.Port) *Server {
	s := &Server{}
	k.NewHandler("iodone", 1, port, func(msg any) int {
		s.costs++ // a function literal handed as the cost callback is a root
		return 1
	}, s.ioDone)
	return s
}

// ioDone is handed to NewHandler as a method value: a thread root.
func (s *Server) ioDone(msg any) bool {
	s.doneQ = append(s.doneQ, msg.(int))
	s.note()
	return !s.stopping
}

// note is reachable from the handler callback, so its access is sanctioned.
func (s *Server) note() {
	s.costs++
}

// Drain is not reachable from any thread entry.
func (s *Server) Drain() int {
	return len(s.doneQ) // want "confined field doneQ"
}
