# Build file of the sarbp benchmark's load generator. The repository's own
# build does not list it: run.py configures the repository root with
# -DCMAKE_PROJECT_INCLUDE=perfbench/build.cmake, so this file is included at
# the end of the root project() call and defers adding `sarbench` until the
# top-level CMakeLists.txt has defined every library target. The benchmark
# thus links the library built with exactly the repository's own flags, and
# only `sarbench` and the libraries it links are compiled.
if(NOT PERFBENCH_DIR)
  set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

  function(perfbench_add_sarbench)
    add_executable(sarbench
      ${PERFBENCH_DIR}/src/main.cpp
      ${PERFBENCH_DIR}/src/harness.cpp
      ${PERFBENCH_DIR}/src/inputs.cpp
      ${PERFBENCH_DIR}/src/workloads.cpp
      ${PERFBENCH_DIR}/src/ladder.cpp)
    target_link_libraries(sarbench PRIVATE sarbp sarbp_flags)
    target_include_directories(sarbench PRIVATE
      ${CMAKE_SOURCE_DIR}/src ${PERFBENCH_DIR}/src)
    set_target_properties(sarbench PROPERTIES
      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
  endfunction()

  cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL
    perfbench_add_sarbench)
endif()
