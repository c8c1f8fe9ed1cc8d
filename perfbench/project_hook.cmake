# Adds the perfbench targets to the root project without editing the root
# CMakeLists.txt. Passed as the root project's include file:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_tycos_INCLUDE=$PWD/perfbench/project_hook.cmake
#
# CMake runs this file at the end of project(tycos). The deferred include
# runs perfbench/CMakeLists.txt after the last line of the root
# CMakeLists.txt, in the root directory's scope, so tycos_bench is compiled
# with the root's options, SIMD level and library targets, like any
# program under bench/. (A deferred call may not add a subdirectory.)
cmake_minimum_required(VERSION 3.19)
cmake_language(DEFER CALL include perfbench/CMakeLists.txt)
