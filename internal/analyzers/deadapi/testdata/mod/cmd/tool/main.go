package main

import (
	"fmt"

	"fix/internal/p"
)

func main() { fmt.Println(p.Qualified(), p.Stale()) }
