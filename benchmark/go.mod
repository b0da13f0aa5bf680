module accelring/benchmark

go 1.23

require accelring v0.0.0

replace accelring => ../
