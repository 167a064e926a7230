module jaws/benchmark

go 1.22

require jaws v0.0.0

replace jaws => ../
