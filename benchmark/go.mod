module confbench/benchmark

go 1.22

require confbench v0.0.0

replace confbench => ../
