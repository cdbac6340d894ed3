# Runs a bench binary with both observability sinks set, then checks that it
# exited 0 and that both files it flushed at exit parse as JSON:
#   cmake -DBIN=<binary> -DOUT=<output dir> -P obs_sinks_at_exit.cmake
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env WHEELS_SCALE=0.02
          "WHEELS_METRICS_OUT=${OUT}/metrics.json"
          "WHEELS_TRACE_OUT=${OUT}/trace.json" "${BIN}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with '${rc}'")
endif()

# file -> the top-level member every valid file carries
foreach(pair "metrics.json;counters" "trace.json;traceEvents")
  list(GET pair 0 name)
  list(GET pair 1 member)
  if(NOT EXISTS "${OUT}/${name}")
    message(FATAL_ERROR "${name} was not written")
  endif()
  file(READ "${OUT}/${name}" text)
  string(JSON type ERROR_VARIABLE err TYPE "${text}" "${member}")
  if(err)
    message(FATAL_ERROR "${name} does not parse as JSON: ${err}")
  endif()
endforeach()

file(READ "${OUT}/trace.json" text)
string(JSON spans LENGTH "${text}" traceEvents)
string(FIND "${text}" "\"campaign.run\"" at)
if(spans EQUAL 0 OR at EQUAL -1)
  message(FATAL_ERROR "trace.json holds no campaign.run span")
endif()
