package cluster

// The session's bounds, for the external tests that hold the proxy to them.
const (
	SessMaxOwed = sessMaxOwed
	SessMaxOut  = sessMaxOut
)
