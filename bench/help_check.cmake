# Runs BENCH --help in the empty directory WORK_DIR and fails unless it
# exits 0, prints a usage line, and writes no file there.
#
#   cmake -DBENCH=path/to/bench_wal -DWORK_DIR=dir -P help_check.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}" --help
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --help exited with ${rc}")
endif()
if(NOT out MATCHES "^usage: ")
  message(FATAL_ERROR "${BENCH} --help printed no usage line:\n${out}")
endif()
file(GLOB written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "${BENCH} --help wrote files: ${written}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
