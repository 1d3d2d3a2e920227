package mat

// Workspace is a reusable arena of scratch vectors for hot paths that would
// otherwise allocate per call (DBN forward passes). Buffers handed out by
// Vec stay loaned until Reset, which returns every loan to the free pool;
// steady-state use therefore allocates only on the first pass through a
// given length.
//
// A nil *Workspace is valid and simply allocates fresh zeroed buffers, so
// callers can thread an optional workspace without nil checks. A Workspace
// is NOT safe for concurrent use; give each goroutine its own (or pool them).
type Workspace struct {
	freeVecs map[int][]Vector
	loanVecs []Vector
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{freeVecs: make(map[int][]Vector)}
}

// Vec returns a zeroed length-n vector owned by the workspace, valid until
// Reset. On a nil workspace it allocates a fresh vector.
func (ws *Workspace) Vec(n int) Vector {
	if ws == nil {
		return NewVector(n)
	}
	free := ws.freeVecs[n]
	if len(free) == 0 {
		v := NewVector(n)
		ws.loanVecs = append(ws.loanVecs, v)
		return v
	}
	v := free[len(free)-1]
	ws.freeVecs[n] = free[:len(free)-1]
	for i := range v {
		v[i] = 0
	}
	ws.loanVecs = append(ws.loanVecs, v)
	return v
}

// Reset reclaims every buffer loaned since the previous Reset. Buffers
// previously returned by Vec must not be used after Reset — they will be
// handed out again. Reset on a nil workspace is a no-op.
func (ws *Workspace) Reset() {
	if ws == nil {
		return
	}
	for _, v := range ws.loanVecs {
		ws.freeVecs[len(v)] = append(ws.freeVecs[len(v)], v)
	}
	ws.loanVecs = ws.loanVecs[:0]
}
