module cudaadvisor/bench

go 1.22

require cudaadvisor v0.0.0

replace cudaadvisor => ../
