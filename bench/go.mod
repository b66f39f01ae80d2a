module connectit/bench

go 1.24

require connectit v0.0.0

replace connectit => ../
