// Package q reaches p through a renamed import.
package q

import pp "fix/internal/p"

func use() int { return pp.Aliased() }

var _ = use()
