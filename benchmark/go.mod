module verifyio/benchmark

go 1.22

require verifyio v0.0.0

replace verifyio => ../
