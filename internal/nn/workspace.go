package nn

// Workspace holds every reusable buffer of the batched execution
// engine: per-layer activation and delta matrices, the candidate
// staging matrix, and the logit/probability scratch of the policy. All
// buffers grow geometrically to the largest batch seen and are then
// recycled, so steady-state ForwardBatch/BackpropBatch calls allocate
// nothing. A Workspace is bound to one goroutine at a time. The zero
// value is ready to use.
type Workspace struct {
	net *Net // the net the layer buffers are shaped for

	acts   []*Matrix // acts[0] aliases the input; acts[l+1] is batch×sizes[l+1]
	deltas []*Matrix // deltas[l] is batch×sizes[l+1]
	batch  int       // allocated batch capacity

	x     *Matrix   // candidate staging matrix (Policy.Candidates)
	probs []float64 // softmax scratch (Policy scoring)
	dl    []float64 // dLoss/dLogit scratch (Policy training)
	dlMat Matrix    // column-matrix header over dl
}

// ensureBatch shapes the layer buffers for net n and batch size m.
func (ws *Workspace) ensureBatch(n *Net, m int) {
	if ws.net != n {
		ws.net = n
		ws.acts = make([]*Matrix, len(n.W)+1)
		ws.deltas = make([]*Matrix, len(n.W))
		ws.batch = 0
	}
	if m > ws.batch {
		c := ws.batch * 2
		if c < m {
			c = m
		}
		if c < 16 {
			c = 16
		}
		ws.batch = c
		for l := range n.W {
			ws.acts[l+1] = NewMatrix(c, n.sizes[l+1])
			ws.deltas[l] = NewMatrix(c, n.sizes[l+1])
		}
	}
	for l := range n.W {
		ws.acts[l+1].Reshape(m, n.sizes[l+1])
		ws.deltas[l].Reshape(m, n.sizes[l+1])
	}
}

// staging returns the candidate staging matrix reshaped to rows×cols.
func (ws *Workspace) staging(rows, cols int) *Matrix {
	if ws.x == nil {
		ws.x = NewMatrix(rows, cols)
		return ws.x
	}
	return ws.x.Reshape(rows, cols)
}

// probsBuf returns the probability scratch slice of length n.
func (ws *Workspace) probsBuf(n int) []float64 {
	if cap(ws.probs) < n {
		ws.probs = make([]float64, n)
	}
	ws.probs = ws.probs[:n]
	return ws.probs
}

// dlogits returns the dLoss/dLogit scratch as an n×1 column matrix.
func (ws *Workspace) dlogits(n int) *Matrix {
	if cap(ws.dl) < n {
		ws.dl = make([]float64, n)
	}
	ws.dl = ws.dl[:n]
	ws.dlMat = Matrix{Rows: n, Cols: 1, Data: ws.dl}
	return &ws.dlMat
}
