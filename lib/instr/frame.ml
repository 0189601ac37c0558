type event = Enter of { site : Site.t; pos : int } | Exit of { pos : int }
