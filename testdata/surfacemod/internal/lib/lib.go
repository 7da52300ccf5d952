// Package lib holds one declaration of each kind the analysis must tell
// apart.
package lib

// Describer is how Use reaches Impl's method.
type Describer interface{ Describe() string }

// Impl's Describe is named nowhere: it is reached only through Describer.
type Impl struct{}

func (Impl) Describe() string { return "impl" }

// register is called only from a package-level var initializer.
func register() int { return 1 }

var _ = register()

// Dead is reached by nothing.
func Dead() {}

// Use is what main calls.
func Use() string {
	var d Describer = Impl{}
	return d.Describe()
}
