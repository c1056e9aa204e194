# Writes the header that gives RunManifest its git_sha: the short HEAD
# commit, "-dirty" appended when tracked files differ from it, or "unknown"
# without git or a repository. The scion_git_sha target runs this at every
# build, and the header is rewritten only when its content changes, so an
# unchanged tree recompiles and relinks nothing.
#
#   cmake -DSOURCE_DIR=<a directory in the tree> -DOUTPUT=<header> -P git_sha.cmake
set(sha "unknown")
find_program(GIT git)
if(GIT)
  execute_process(
    COMMAND ${GIT} rev-parse --short HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE head
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
  if(rc EQUAL 0 AND NOT head STREQUAL "")
    set(sha "${head}")
    execute_process(
      COMMAND ${GIT} diff --quiet HEAD --
      WORKING_DIRECTORY ${SOURCE_DIR}
      OUTPUT_QUIET
      ERROR_QUIET
      RESULT_VARIABLE dirty)
    if(dirty EQUAL 1)
      set(sha "${sha}-dirty")
    endif()
  endif()
endif()

set(content "// Generated by src/obs/git_sha.cmake at build time.\n#define SCION_MPR_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
