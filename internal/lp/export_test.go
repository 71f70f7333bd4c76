package lp

// CheckPicks is checkPicks for the external tests, which drive the solver
// through the packages built on it.
var CheckPicks = checkPicks
