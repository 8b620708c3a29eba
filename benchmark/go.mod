module dhisq/benchmark

go 1.24

require dhisq v0.0.0

replace dhisq => ../
