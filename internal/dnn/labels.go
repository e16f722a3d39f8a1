package dnn

import "strconv"

// Labels of a training step's kernels, transfers and buffers.
//
// A simulated training step stamps every kernel and transfer it issues, and
// every buffer it allocates, with a label made of the layer's name or the
// buffer's ID: "FWD:conv1", "fm3", "OFF:conv1.W". The labels depend on the
// network alone, so they are built once per network, on first use, and
// shared by every run on it instead of being re-concatenated at every issue.

// LayerLabels are the labels of one layer's work.
type LayerLabels struct {
	Fwd string // FWD:<name>: the forward kernel
	// Bwd are the backward kernels in issue order: BWD-DATA:<name> then
	// BWD-FILTER:<name> for CONV and FC layers, BWD:<name> alone otherwise.
	Bwd          [2]string
	Workspace    string // <name>.ws: the forward convolution workspace
	BwdWorkspace string // <name>.bws: the backward convolution workspace
	Weights      string // <name>.W
	WeightGrads  string // <name>.dW
	Mask         string // <name>.mask: the dropout mask
	WeightsPin   string // <name>.W.pin: the weights' pinned host copy
	OffloadW     string // OFF:<name>.W
	PrefetchW    string // PRE:<name>.W
	FetchW       string // FETCH:<name>.W: the on-demand weight fetch
	Update       string // sgd:<name>: the weight update kernel
}

// TensorLabels are the labels of one feature-map buffer.
type TensorLabels struct {
	FM    string // fm<id>: the feature map
	Grad  string // grad<id>: its gradient (when it is an aliasing root)
	Fetch string // FETCH(fm<id>): its on-demand copy-back
	Pin   string // pin-fm<id>: its pinned host staging area
}

// Labels are a network's layer and buffer labels, indexed by layer and
// tensor ID.
type Labels struct {
	Layers  []LayerLabels
	Tensors []TensorLabels
}

// NetworkLabels returns the network's labels, built once per network and
// shared between callers: read them, do not mutate them.
func NetworkLabels(n *Network) *Labels {
	d := n.derived
	d.labelsOnce.Do(func() { d.labels = buildLabels(n) })
	return d.labels
}

func buildLabels(n *Network) *Labels {
	lb := &Labels{
		Layers:  make([]LayerLabels, len(n.Layers)),
		Tensors: make([]TensorLabels, len(n.Tensors)),
	}
	for i, l := range n.Layers {
		name := l.Name
		ll := LayerLabels{
			Fwd:          "FWD:" + name,
			Bwd:          [2]string{"BWD:" + name},
			Workspace:    name + ".ws",
			BwdWorkspace: name + ".bws",
			Weights:      name + ".W",
			WeightGrads:  name + ".dW",
			Mask:         name + ".mask",
			WeightsPin:   name + ".W.pin",
			OffloadW:     "OFF:" + name + ".W",
			PrefetchW:    "PRE:" + name + ".W",
			FetchW:       "FETCH:" + name + ".W",
			Update:       "sgd:" + name,
		}
		if l.Kind == Conv || l.Kind == FC {
			ll.Bwd = [2]string{"BWD-DATA:" + name, "BWD-FILTER:" + name}
		}
		lb.Layers[i] = ll
	}
	for i := range n.Tensors {
		fm := "fm" + strconv.Itoa(i)
		lb.Tensors[i] = TensorLabels{
			FM:    fm,
			Grad:  "grad" + strconv.Itoa(i),
			Fetch: "FETCH(" + fm + ")",
			Pin:   "pin-" + fm,
		}
	}
	return lb
}
