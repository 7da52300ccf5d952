// Command surfacemod is the module TestSurfaceFindsOnlyTheDead analyses.
package main

import (
	"fmt"

	"surfacemod/internal/lib"
)

func main() { fmt.Println(lib.Use()) }
