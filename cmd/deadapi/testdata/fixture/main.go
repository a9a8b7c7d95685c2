// Command fixture is the module the deadapi test runs the guard on.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Kept{})
}
