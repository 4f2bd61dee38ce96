from .readers import (read_csv_typed, read_json_typed, read_sql_typed,  # noqa: F401
                      read_text_lines, detect_format, write_csv)
