# Build-time revision stamp: writes OUT, a header defining
# SSDK_BENCH_REVISION as the short commit of SOURCE_DIR, suffixed "-dirty"
# when tracked files have uncommitted changes, or "unknown" outside a git
# checkout. The file is rewritten only when its content changes, so an
# unchanged tree does not recompile bench_suite.
#
#   cmake -DSOURCE_DIR=<repo> -DOUT=<header> -P revision.cmake
set(rev "unknown")
find_package(Git QUIET)
if(GIT_FOUND)
  execute_process(
    COMMAND "${GIT_EXECUTABLE}" -C "${SOURCE_DIR}" rev-parse --show-toplevel
    OUTPUT_VARIABLE top RESULT_VARIABLE top_rc
    OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
  # A checkout nested inside some other repository must not borrow its rev.
  if(top_rc EQUAL 0)
    get_filename_component(top "${top}" REALPATH)
    get_filename_component(src "${SOURCE_DIR}" REALPATH)
  endif()
  if(top_rc EQUAL 0 AND top STREQUAL src)
    execute_process(
      COMMAND "${GIT_EXECUTABLE}" -C "${SOURCE_DIR}" rev-parse --short HEAD
      OUTPUT_VARIABLE head OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
    execute_process(
      COMMAND "${GIT_EXECUTABLE}" -C "${SOURCE_DIR}" status --porcelain
              --untracked-files=no
      OUTPUT_VARIABLE dirty ERROR_QUIET)
    if(head)
      set(rev "${head}")
      if(dirty)
        set(rev "${rev}-dirty")
      endif()
    endif()
  endif()
endif()

set(content "#pragma once\n#define SSDK_BENCH_REVISION \"${rev}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
