"""Host-time benchmark of the METRO simulator (see NOTES.md)."""
